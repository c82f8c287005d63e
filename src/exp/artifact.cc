#include "artifact.hh"

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <sstream>

#include <fcntl.h>
#include <unistd.h>

#include "common/csv.hh"
#include "harmonia/common/error.hh"
#include "harmonia/serve/json.hh"

namespace harmonia::exp
{

namespace
{

/**
 * Replace @p path's contents with @p bytes. The file is opened without
 * O_TRUNC, overwritten and then cut to length: truncating a file whose
 * blocks are allocated can cost tens of milliseconds on filesystems
 * that discard freed blocks, and every re-run of an exhibit rewrites
 * files that already exist.
 */
void
replaceFile(const std::string &path, const std::string &bytes)
{
    const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_CLOEXEC,
                          0666);
    fatalIf(fd < 0, "ArtifactWriter: cannot write ", path, ": ",
            std::strerror(errno));
    const auto fail = [&](const char *what) {
        const int err = errno;
        ::close(fd);
        fatal("ArtifactWriter: ", what, " failed for ", path, ": ",
              std::strerror(err));
    };
    size_t done = 0;
    while (done < bytes.size()) {
        const ssize_t n =
            ::write(fd, bytes.data() + done, bytes.size() - done);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            fail("write");
        done += static_cast<size_t>(n);
    }
    if (::ftruncate(fd, static_cast<off_t>(bytes.size())) != 0)
        fail("ftruncate");
    fatalIf(::close(fd) != 0, "ArtifactWriter: close failed for ", path,
            ": ", std::strerror(errno));
}

/** @p s as a JSON string, quoted and escaped. */
std::string
quoted(const std::string &s)
{
    return serve::JsonWriter({}, s.size() + 4).string(s).take();
}

} // namespace

ArtifactWriter::ArtifactWriter(std::string dir, ArtifactFormats formats)
    : dir_(std::move(dir)), formats_(formats)
{
    fatalIf(dir_.empty(), "ArtifactWriter: empty output directory");
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    fatalIf(static_cast<bool>(ec), "ArtifactWriter: cannot create '",
            dir_, "': ", ec.message());
}

void
ArtifactWriter::writeTable(const std::string &stem,
                           const std::string &title,
                           const TextTable &table)
{
    if (!enabled())
        return;
    if (formats_.json) {
        const std::string path = dir_ + "/" + stem + ".json";
        writeJson(path, stem, title, table);
        written_.push_back(path);
    }
    if (formats_.csv) {
        const std::string path = dir_ + "/" + stem + ".csv";
        writeCsv(path, table);
        written_.push_back(path);
    }
}

void
ArtifactWriter::writeJson(const std::string &path,
                          const std::string &stem,
                          const std::string &title,
                          const TextTable &table)
{
    std::ostringstream out;
    out << "{\n"
        << "  \"schema\": \"harmonia.exhibit-table/1\",\n"
        << "  \"exhibit\": " << quoted(stem) << ",\n"
        << "  \"title\": " << quoted(title) << ",\n"
        << "  \"columns\": [";
    const auto &headers = table.headers();
    for (size_t c = 0; c < headers.size(); ++c)
        out << (c ? ", " : "") << quoted(headers[c]);
    out << "],\n  \"rows\": [";
    const auto &rows = table.data();
    for (size_t r = 0; r < rows.size(); ++r) {
        out << (r ? ",\n    " : "\n    ") << '[';
        for (size_t c = 0; c < rows[r].size(); ++c)
            out << (c ? ", " : "") << quoted(rows[r][c]);
        out << ']';
    }
    out << (rows.empty() ? "]" : "\n  ]") << "\n}\n";
    replaceFile(path, out.str());
}

void
ArtifactWriter::writeCsv(const std::string &path, const TextTable &table)
{
    std::ostringstream out;
    CsvWriter csv(out, table.headers());
    for (const auto &row : table.data()) {
        csv.row();
        for (const auto &cell : row)
            csv.field(cell);
    }
    csv.finish();
    replaceFile(path, out.str());
}

} // namespace harmonia::exp
