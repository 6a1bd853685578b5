#include "support/strfmt.hh"

#include <cstdarg>
#include <cstdio>
#include <vector>

namespace el
{

std::string
strfmt(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    va_list ap2;
    va_copy(ap2, ap);
    int n = std::vsnprintf(nullptr, 0, fmt, ap);
    va_end(ap);
    if (n < 0) {
        va_end(ap2);
        return {};
    }
    std::string out(static_cast<size_t>(n), '\0');
    std::vsnprintf(out.data(), out.size() + 1, fmt, ap2);
    va_end(ap2);
    return out;
}

bool
parseUint(const char *text, uint64_t lo, uint64_t hi, uint64_t *out)
{
    if (!text || !*text)
        return false;
    uint64_t v = 0;
    for (const char *c = text; *c; ++c) {
        if (*c < '0' || *c > '9')
            return false;
        unsigned digit = static_cast<unsigned>(*c - '0');
        if (v > (UINT64_MAX - digit) / 10)
            return false; // overflows 64 bits
        v = v * 10 + digit;
    }
    if (v < lo || v > hi)
        return false;
    *out = v;
    return true;
}

} // namespace el
