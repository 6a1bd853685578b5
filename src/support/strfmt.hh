/**
 * @file
 * Printf-style string formatting returning std::string, and strict
 * parsing of unsigned decimal numbers.
 *
 * GCC 12 lacks <format>, so the project uses this thin, type-checked
 * vsnprintf wrapper everywhere a formatted std::string is needed.
 */

#ifndef EL_SUPPORT_STRFMT_HH
#define EL_SUPPORT_STRFMT_HH

#include <cstdint>
#include <string>

namespace el
{

/**
 * Format like printf into a std::string.
 *
 * @param fmt printf format string.
 * @return The formatted string.
 */
std::string strfmt(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Parse @p text as an unsigned decimal number in [@p lo, @p hi]: one or
 * more digits and nothing else (no sign, space or suffix).
 *
 * @return false, leaving @p out untouched, on anything else.
 */
bool parseUint(const char *text, uint64_t lo, uint64_t hi, uint64_t *out);

} // namespace el

#endif // EL_SUPPORT_STRFMT_HH
