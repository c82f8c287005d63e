/**
 * @file
 * The in-repo shortest-double writer (src/serve/shortest_double.hh)
 * against std::to_chars, byte for byte: a million random bit patterns,
 * a million log-uniform values in [1e-12, 1e12], and the edges — every
 * power of two and the powers of ten with their nextafter neighbours,
 * subnormals, DBL_MAX/DBL_MIN, integers around 2^53 and negative zero.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <string>

#include "serve/shortest_double.hh"

namespace harmonia::serve
{
namespace
{

std::string
viaToChars(double d)
{
    char buf[64];
    return std::string(buf, std::to_chars(buf, buf + sizeof(buf), d).ptr);
}

std::string
viaWriter(double d)
{
    char buf[kShortestDoubleRoom];
    char *end = writeShortestDouble(buf, d);
    EXPECT_LE(static_cast<size_t>(end - buf), kShortestDoubleMaxChars);
    return std::string(buf, end);
}

/** Counts mismatches and reports the first few. */
class Comparer
{
  public:
    void check(double d)
    {
        ++checked_;
        const std::string want = viaToChars(d);
        const std::string got = viaWriter(d);
        if (want == got)
            return;
        if (++mismatches_ > 5)
            return; // Keep the log short.
        ADD_FAILURE() << "bits 0x" << std::hex
            << std::bit_cast<uint64_t>(d) << ": to_chars \"" << want
            << "\", writer \"" << got << "\"";
    }

    /** @p d and its nextafter neighbours on both sides. */
    void checkNeighbourhood(double d)
    {
        check(d);
        check(std::nextafter(d, -std::numeric_limits<double>::infinity()));
        check(std::nextafter(d, std::numeric_limits<double>::infinity()));
        check(-d);
    }

    size_t checked() const { return checked_; }
    size_t mismatches() const { return mismatches_; }

  private:
    size_t checked_ = 0;
    size_t mismatches_ = 0;
};

TEST(ShortestDouble, RandomBitPatternsMatchToChars)
{
    std::mt19937_64 rng(0x5eed0001);
    Comparer cmp;
    for (int i = 0; i < 1000000; ++i)
        cmp.check(std::bit_cast<double>(rng()));
    EXPECT_EQ(cmp.mismatches(), 0u) << "of " << cmp.checked();
}

TEST(ShortestDouble, LogUniformValuesMatchToChars)
{
    std::mt19937_64 rng(0x5eed0002);
    std::uniform_real_distribution<double> exponent(-12.0, 12.0);
    Comparer cmp;
    for (int i = 0; i < 1000000; ++i)
        cmp.check(std::pow(10.0, exponent(rng)));
    EXPECT_EQ(cmp.mismatches(), 0u) << "of " << cmp.checked();
}

TEST(ShortestDouble, EdgesMatchToChars)
{
    Comparer cmp;
    for (int e = -1074; e <= 1023; ++e)
        cmp.checkNeighbourhood(std::ldexp(1.0, e));
    for (int e = -323; e <= 308; ++e)
        cmp.checkNeighbourhood(
            std::strtod(("1e" + std::to_string(e)).c_str(), nullptr));

    // Subnormals: the smallest ones, the largest, and a spread in between.
    for (uint64_t bits = 1; bits < 4096; ++bits)
        cmp.check(std::bit_cast<double>(bits));
    for (uint64_t bits = (uint64_t{1} << 52) - 64;
         bits < (uint64_t{1} << 52); ++bits)
        cmp.check(std::bit_cast<double>(bits));
    std::mt19937_64 rng(0x5eed0003);
    for (int i = 0; i < 10000; ++i)
        cmp.check(std::bit_cast<double>(rng() & ((uint64_t{1} << 52) - 1)));

    cmp.checkNeighbourhood(DBL_MAX);
    cmp.checkNeighbourhood(DBL_MIN);
    cmp.checkNeighbourhood(DBL_TRUE_MIN);

    // Integers around 2^53, where libstdc++ prints the exact integer.
    const double two53 = std::ldexp(1.0, 53);
    for (int k = -1000; k <= 1000; ++k) {
        cmp.check(two53 + k);
        cmp.check(2.0 * two53 + 2.0 * k);
    }
    for (int e = 0; e <= 80; ++e) {
        cmp.checkNeighbourhood(std::ldexp(3.0, e));
        cmp.checkNeighbourhood(std::pow(10.0, e) + 1.0);
    }

    cmp.check(0.0);
    cmp.check(-0.0);
    EXPECT_EQ(viaWriter(-0.0), "-0");
    EXPECT_EQ(viaWriter(0.0), "0");
    EXPECT_EQ(cmp.mismatches(), 0u) << "of " << cmp.checked();
}

TEST(ShortestDouble, KnownForms)
{
    EXPECT_EQ(viaWriter(0.001), "0.001");
    EXPECT_EQ(viaWriter(0.0001), "1e-04");
    EXPECT_EQ(viaWriter(1.5), "1.5");
    EXPECT_EQ(viaWriter(123456.0), "123456");
    EXPECT_EQ(viaWriter(100.0), "100");
    EXPECT_EQ(viaWriter(1e21), "1e+21");
    EXPECT_EQ(viaWriter(-2.2250738585072014e-308),
              "-2.2250738585072014e-308");
    EXPECT_EQ(viaWriter(5e-324), "5e-324");
    EXPECT_EQ(viaWriter(0.1), "0.1");
}

} // namespace
} // namespace harmonia::serve
