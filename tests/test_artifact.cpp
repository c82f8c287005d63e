/**
 * @file
 * Tests for the experiment driver's artifact writer
 * (src/exp/artifact.hh): artifacts are rewritten in place, and a
 * rewrite leaves exactly the bytes a fresh write produces.
 */

#include "exp/artifact.hh"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <unistd.h>

#include <gtest/gtest.h>

#include "harmonia/common/error.hh"

using namespace harmonia;
using namespace harmonia::exp;

namespace
{

std::string
readFile(const std::filesystem::path &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    return bytes.str();
}

TextTable
tableOf(int rows)
{
    TextTable table({"name", "value"});
    for (int r = 0; r < rows; ++r)
        table.row().cell("row " + std::to_string(r)).numInt(r * 1000);
    return table;
}

class ArtifactWriterTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        root_ = std::filesystem::path(::testing::TempDir()) /
                ("harmonia_artifact_" + std::to_string(::getpid()));
        std::filesystem::remove_all(root_);
    }

    void TearDown() override { std::filesystem::remove_all(root_); }

    std::filesystem::path root_;
};

TEST_F(ArtifactWriterTest, ShorterRewriteLeavesNoStaleTail)
{
    const std::string dir = (root_ / "rewritten").string();
    const std::string fresh = (root_ / "fresh").string();
    ArtifactWriter writer(dir, ArtifactFormats{});
    writer.writeTable("t", "a long title for the first write",
                      tableOf(40));
    const std::string longJson = readFile(dir + "/t.json");
    const std::string longCsv = readFile(dir + "/t.csv");

    writer.writeTable("t", "short", tableOf(2));
    ArtifactWriter(fresh, ArtifactFormats{})
        .writeTable("t", "short", tableOf(2));

    const std::string json = readFile(dir + "/t.json");
    const std::string csv = readFile(dir + "/t.csv");
    EXPECT_LT(json.size(), longJson.size());
    EXPECT_LT(csv.size(), longCsv.size());
    EXPECT_EQ(json, readFile(fresh + "/t.json"));
    EXPECT_EQ(csv, readFile(fresh + "/t.csv"));
}

TEST_F(ArtifactWriterTest, LongerRewriteReplacesEveryByte)
{
    const std::string dir = (root_ / "grown").string();
    ArtifactWriter writer(dir, ArtifactFormats{});
    writer.writeTable("t", "short", tableOf(1));
    writer.writeTable("t", "long", tableOf(30));
    ArtifactWriter fresh((root_ / "fresh").string(), ArtifactFormats{});
    fresh.writeTable("t", "long", tableOf(30));
    EXPECT_EQ(readFile(dir + "/t.json"),
              readFile(root_ / "fresh" / "t.json"));
    EXPECT_EQ(readFile(dir + "/t.csv"),
              readFile(root_ / "fresh" / "t.csv"));
}

TEST_F(ArtifactWriterTest, UnwritablePathThrows)
{
    const std::string dir = (root_ / "blocked").string();
    ArtifactWriter writer(dir, ArtifactFormats{});
    // A directory where the artifact file should go cannot be opened
    // for writing.
    std::filesystem::create_directories(dir + "/t.json");
    EXPECT_THROW(writer.writeTable("t", "x", tableOf(1)), SimError);
}

} // namespace
