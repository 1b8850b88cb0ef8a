/**
 * @file
 * StatField — one named uint64_t counter of a statistics struct. A
 * constexpr list of them beside the struct (sim::kStatFields,
 * mem::kCacheStatFields) is the one definition every codec derives
 * the struct's field names and order from.
 */

#ifndef D16SIM_SUPPORT_STAT_FIELD_HH
#define D16SIM_SUPPORT_STAT_FIELD_HH

#include <cstdint>

namespace d16sim
{

template <typename S>
struct StatField
{
    const char *name;
    uint64_t S::*member;
};

} // namespace d16sim

#endif // D16SIM_SUPPORT_STAT_FIELD_HH
