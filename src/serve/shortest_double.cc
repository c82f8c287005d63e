#include "serve/shortest_double.hh"

#include <bit>
#include <charconv>
#include <cstdint>
#include <cstring>

namespace harmonia::serve
{

namespace
{

// The Schubfach core follows the skeleton of figure 7 and the
// arithmetic of figure 9 of R. Giulietti, "The Schubfach way to render
// doubles" (2020). c * 2^q is the double's value with an integer
// significand c.
constexpr int kQMin = -1074;
constexpr uint64_t kCMin = uint64_t{1} << 52;
constexpr int kKMin = -324;

/** g = g1 * 2^63 + g0 for one decimal exponent (see the table). */
struct Pow10
{
    uint64_t g1;
    uint64_t g0;
};

constexpr Pow10 kPow10[] = {
#include "serve/pow10_table.inc"
};
static_assert(sizeof(kPow10) / sizeof(kPow10[0]) == 617,
              "one entry per decimal exponent in [-324, 292]");

/** floor(log10(2^e)). */
int
flog10pow2(int e)
{
    return static_cast<int>((int64_t{e} * 661971961083) >> 41);
}

/** floor(log10(3/4 * 2^e)). */
int
flog10threeQuartersPow2(int e)
{
    return static_cast<int>((int64_t{e} * 661971961083 - 274743187321) >>
                            41);
}

/** floor(log2(10^e)). */
int
flog2pow10(int e)
{
    return static_cast<int>((int64_t{e} * 913124641741) >> 38);
}

uint64_t
mulHigh(uint64_t a, uint64_t b)
{
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(a) * b) >> 64);
}

/** cp * g * 2^-127, rounded to odd (figure 8). */
uint64_t
roundToOdd(const Pow10 &g, uint64_t cp)
{
    constexpr uint64_t kMask63 = (uint64_t{1} << 63) - 1;
    const uint64_t x1 = mulHigh(g.g0, cp);
    const uint64_t y0 = g.g1 * cp;
    const uint64_t y1 = mulHigh(g.g1, cp);
    const uint64_t z = (y0 >> 1) + x1;
    const uint64_t vbp = y1 + (z >> 63);
    return vbp | (((z & kMask63) + kMask63) >> 63);
}

/** The decimal f * 10^e the double c * 2^q renders as (f may carry
 * trailing zeros). */
struct Decimal
{
    uint64_t f;
    int e;
};

Decimal
toDecimal(int q, uint64_t c)
{
    const uint64_t out = c & 1;
    const uint64_t cb = c << 2;
    const uint64_t cbr = cb + 2;
    uint64_t cbl;
    int k;
    if (c != kCMin || q == kQMin) {
        cbl = cb - 2; // Regular spacing.
        k = flog10pow2(q);
    } else {
        cbl = cb - 1; // The lower neighbour is closer.
        k = flog10threeQuartersPow2(q);
    }
    const int h = q + flog2pow10(-k) + 2;
    const Pow10 &g = kPow10[k - kKMin];
    const uint64_t vb = roundToOdd(g, cb << h);
    const uint64_t vbl = roundToOdd(g, cbl << h);
    const uint64_t vbr = roundToOdd(g, cbr << h);

    const uint64_t s = vb >> 2;
    if (s >= 10) {
        // One digit fewer: s' = floor(s / 10); u' and w' are the
        // candidates on that coarser grid. (Java's Double.toString
        // starts at s >= 100 because it always prints two digits;
        // to_chars prints 8e-323 where Java prints 7.9E-323.)
        const uint64_t sp10 = 10 * mulHigh(s, uint64_t{115292150460684698}
                                                  << 4);
        const uint64_t tp10 = sp10 + 10;
        const bool upin = vbl + out <= sp10 << 2;
        const bool wpin = (tp10 << 2) + out <= vbr;
        if (upin != wpin)
            return {upin ? sp10 : tp10, k};
    }
    const uint64_t t = s + 1;
    const bool uin = vbl + out <= s << 2;
    const bool win = (t << 2) + out <= vbr;
    if (uin != win)
        return {uin ? s : t, k};
    // Both lie in the rounding interval: the closer one, even on a tie.
    const int64_t cmp = static_cast<int64_t>(vb - ((s + t) << 1));
    return {cmp < 0 || (cmp == 0 && (s & 1) == 0) ? s : t, k};
}

constexpr uint64_t kPow10Int[] = {
    1ull,
    10ull,
    100ull,
    1000ull,
    10000ull,
    100000ull,
    1000000ull,
    10000000ull,
    100000000ull,
    1000000000ull,
    10000000000ull,
    100000000000ull,
    1000000000000ull,
    10000000000000ull,
    100000000000000ull,
    1000000000000000ull,
    10000000000000000ull,
    100000000000000000ull,
    1000000000000000000ull,
};

/** Decimal digits of @p f (f > 0, f < 10^18). */
int
digitCount(uint64_t f)
{
    // log10(2) ~= 1233 / 4096: a guess from the bit length that is
    // exact or one short.
    const int guess = ((64 - std::countl_zero(f)) * 1233) >> 12;
    return guess + (f >= kPow10Int[guess]);
}

constexpr char kDigitPairs[] =
    "00010203040506070809101112131415161718192021222324252627282930313233"
    "34353637383940414243444546474849505152535455565758596061626364656667"
    "6869707172737475767778798081828384858687888990919293949596979899";

/** @p v (< 10^4) as exactly four digits at @p at. */
void
writeFour(char *at, uint32_t v)
{
    std::memcpy(at, kDigitPairs + 2 * (v / 100), 2);
    std::memcpy(at + 2, kDigitPairs + 2 * (v % 100), 2);
}

/** @p v (< 10^8) as exactly eight digits at @p at. */
void
writeEight(char *at, uint32_t v)
{
    writeFour(at, v / 10000);
    writeFour(at + 4, v % 10000);
}

/** Digits a Decimal's significand can have. */
constexpr int kMaxDigits = 17;

/** @p f (< 10^17) as exactly kMaxDigits digits at @p at: three short
 * independent division chains rather than one long one. */
void
writeSeventeen(char *at, uint64_t f)
{
    const uint64_t high = f / 100000000;
    const auto low = static_cast<uint32_t>(f % 100000000);
    at[0] = static_cast<char>('0' + high / 100000000);
    writeEight(at + 1, static_cast<uint32_t>(high % 100000000));
    writeEight(at + 9, low);
}

} // namespace

char *
writeShortestDouble(char *out, double d)
{
    const uint64_t bits = std::bit_cast<uint64_t>(d);
    const int biased = static_cast<int>((bits >> 52) & 0x7ff);
    const uint64_t fraction = bits & (kCMin - 1);
    if (biased == 0x7ff) // Infinity and NaN.
        return std::to_chars(out, out + kShortestDoubleMaxChars, d).ptr;

    char *at = out;
    if (bits >> 63)
        *at++ = '-';
    if (biased == 0 && fraction == 0) {
        *at++ = '0';
        return at;
    }
    const Decimal dec = biased != 0
                            ? toDecimal(biased - 1075, fraction | kCMin)
                            : toDecimal(kQMin, fraction);

    uint64_t f = dec.f;
    int e = dec.e;
    while (f % 10 == 0) {
        f /= 10;
        ++e;
    }
    const int n = digitCount(f);
    const int x = e + n - 1; // The scientific exponent.
    // The digits sit right-aligned in the first kMaxDigits bytes; the
    // zeroed tail lets every copy below move a fixed 16 or 17 bytes
    // (no call to memcpy for a variable length), its excess landing in
    // the caller's room past the returned end.
    char digits[kMaxDigits + 16] = {};
    writeSeventeen(digits, f);
    const char *first = digits + kMaxDigits - n;

    // std::to_chars picks fixed notation unless scientific is shorter.
    const int sciLen = n + (n > 1) + 2 + (x >= 100 || x <= -100 ? 3 : 2);
    const int fixedLen = e >= 0 ? n + e : x >= 0 ? n + 1 : n + 1 - x;
    if (fixedLen <= sciLen) {
        if (e > 0)
            return std::to_chars(out, out + kShortestDoubleMaxChars, d).ptr;
        if (x < 0) {
            // 0.000ddd
            std::memcpy(at, "0.000", 5);
            at += 1 - x;
        }
        if (e == 0 || x < 0) {
            std::memcpy(at, first, kMaxDigits);
            return at + n;
        }
        // ddd.ddd
        std::memcpy(at, first, kMaxDigits);
        at[x + 1] = '.';
        std::memcpy(at + x + 2, first + x + 1, 16);
        return at + n + 1;
    }

    // d.ddde+XX
    at[0] = first[0];
    at[1] = '.';
    std::memcpy(at + 2, first + 1, 16);
    at += n > 1 ? n + 1 : 1;
    *at++ = 'e';
    int mag = x;
    if (mag < 0) {
        *at++ = '-';
        mag = -mag;
    } else {
        *at++ = '+';
    }
    if (mag >= 100) {
        *at++ = static_cast<char>('0' + mag / 100);
        mag %= 100;
    }
    std::memcpy(at, kDigitPairs + 2 * mag, 2);
    return at + 2;
}

} // namespace harmonia::serve
