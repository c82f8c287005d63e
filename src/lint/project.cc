#include "harmonia/lint/project.hh"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "harmonia/common/error.hh"

namespace fs = std::filesystem;

namespace harmonia::lint
{

namespace
{

/** The directories a scan covers, in scan order. */
constexpr const char *kSourceDirs[] = {"src", "include", "tools",
                                       "examples", "tests"};

bool
isSourceExtension(const std::string &name)
{
    return name.ends_with(".cc") || name.ends_with(".cpp") ||
           name.ends_with(".cxx") || name.ends_with(".hh") ||
           name.ends_with(".h") || name.ends_with(".hpp");
}

std::string
readFileOrThrow(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    fatalIf(!in, "harmonia_lint: cannot read '", path.string(), "'");
    std::ostringstream content;
    content << in.rdbuf();
    return content.str();
}

/** Split a CMake argument list on whitespace, honoring quotes. */
std::vector<std::string>
tokenizeCMakeArgs(const std::string &args)
{
    std::vector<std::string> tokens;
    std::string current;
    bool quoted = false;
    for (char c : args) {
        if (c == '"') {
            quoted = !quoted;
            current.push_back(c);
        } else if (!quoted && std::isspace(static_cast<unsigned char>(c))) {
            if (!current.empty()) {
                tokens.push_back(std::move(current));
                current.clear();
            }
        } else {
            current.push_back(c);
        }
    }
    if (!current.empty())
        tokens.push_back(std::move(current));
    return tokens;
}

} // namespace

std::vector<std::string>
parseSimdFlaggedSources(const std::string &cmakeText,
                        const std::string &relDir)
{
    // Drop #-to-end-of-line CMake comments (naive about '#' inside
    // quoted arguments, which never holds for the calls we key on).
    std::string code;
    code.reserve(cmakeText.size());
    bool inComment = false;
    for (char c : cmakeText) {
        if (c == '\n')
            inComment = false;
        else if (c == '#')
            inComment = true;
        code.push_back(inComment ? ' ' : c);
    }

    std::vector<std::string> out;
    const std::string kCall = "set_source_files_properties";
    size_t pos = 0;
    while ((pos = code.find(kCall, pos)) != std::string::npos) {
        size_t open = code.find('(', pos + kCall.size());
        if (open == std::string::npos)
            break;
        size_t close = code.find(')', open + 1);
        if (close == std::string::npos)
            break;
        const std::string args = code.substr(open + 1, close - open - 1);
        pos = close + 1;
        if (args.find("HARMONIA_SIMD_SOURCE_OPTIONS") ==
                std::string::npos ||
            args.find("COMPILE_OPTIONS") == std::string::npos)
            continue;
        for (const std::string &token : tokenizeCMakeArgs(args)) {
            if (token == "PROPERTIES")
                break;
            std::string path =
                relDir.empty() ? token : relDir + "/" + token;
            out.push_back(std::move(path));
        }
    }
    return out;
}

ProjectBuilder &
ProjectBuilder::add(std::string path, const std::string &content)
{
    project_.files_.push_back(
        SourceFile::fromString(std::move(path), content));
    return *this;
}

ProjectBuilder &
ProjectBuilder::simdFlagged(std::string path)
{
    project_.simdFlagged_.insert(std::move(path));
    project_.hasBuildInfo_ = true;
    return *this;
}

ProjectBuilder &
ProjectBuilder::withBuildInfo()
{
    project_.hasBuildInfo_ = true;
    return *this;
}

Project
ProjectBuilder::build()
{
    std::sort(project_.files_.begin(), project_.files_.end(),
              [](const SourceFile &a, const SourceFile &b) {
                  return a.path() < b.path();
              });
    return std::move(project_);
}

Project
scanProject(const std::string &root)
{
    const fs::path rootPath(root.empty() ? "." : root);
    fatalIf(!fs::exists(rootPath / "CMakeLists.txt"),
            "harmonia_lint: '", rootPath.string(),
            "' is not a repo root (no CMakeLists.txt); pass --root");

    ProjectBuilder builder;
    builder.withBuildInfo();

    std::vector<fs::path> cmakeFiles = {rootPath / "CMakeLists.txt"};
    for (const char *dir : kSourceDirs) {
        const fs::path top = rootPath / dir;
        if (!fs::exists(top))
            continue;
        for (auto it = fs::recursive_directory_iterator(top);
             it != fs::recursive_directory_iterator(); ++it) {
            if (!it->is_regular_file())
                continue;
            const fs::path &p = it->path();
            const std::string rel =
                fs::relative(p, rootPath).generic_string();
            if (p.filename() == "CMakeLists.txt") {
                cmakeFiles.push_back(p);
            } else if (isSourceExtension(p.filename().string())) {
                builder.add(rel, readFileOrThrow(p));
            }
        }
    }

    Project project = builder.build();
    for (const fs::path &cmake : cmakeFiles) {
        const std::string relDir =
            fs::relative(cmake.parent_path(), rootPath)
                .generic_string();
        for (std::string &path : parseSimdFlaggedSources(
                 readFileOrThrow(cmake), relDir == "." ? "" : relDir))
            project.simdFlagged_.insert(std::move(path));
    }
    return project;
}

} // namespace harmonia::lint
