/**
 * @file
 * The shortest round-trip form of a double, as JsonWriter::number
 * writes it: byte for byte what std::to_chars(first, last, d) writes
 * (the shortest digits, fixed or scientific notation, whichever is
 * shorter, fixed on a tie), computed with Giulietti's Schubfach
 * algorithm. Fixed-notation results with a positive decimal exponent
 * (integers with trailing zeros) and non-finite values are left to
 * std::to_chars, which prints integers of 2^53 and above exactly.
 * tests/test_shortest_double.cpp compares the two over millions of
 * values.
 */

#ifndef HARMONIA_SERVE_SHORTEST_DOUBLE_HH
#define HARMONIA_SERVE_SHORTEST_DOUBLE_HH

#include <cstddef>

namespace harmonia::serve
{

/** Longest output of writeShortestDouble() ("-2.2250738585072014e-308"). */
constexpr size_t kShortestDoubleMaxChars = 24;

/** Room writeShortestDouble() needs at its output: it copies digits in
 * fixed-size blocks, so it may scribble past the bytes it returns. */
constexpr size_t kShortestDoubleRoom = 48;

/**
 * Write the shortest round-trip form of @p d at @p out, which must have
 * room for kShortestDoubleRoom bytes; returns one past the last byte of
 * the form (at most kShortestDoubleMaxChars; no terminator). Bytes
 * after it up to the room are unspecified.
 */
char *writeShortestDouble(char *out, double d);

} // namespace harmonia::serve

#endif // HARMONIA_SERVE_SHORTEST_DOUBLE_HH
