/**
 * @file
 * Layout of the translator's runtime data area.
 *
 * BTGeneric allocates one region from BTLib at startup; translated code
 * reaches it through the dedicated base register r1 (ipf::gr_rt_base).
 * It holds the speculation status bytes of section 5 (FP TOS/TAG, the
 * MMX/FP domain flag, the packed XMM format word), the FP-stack array
 * for the in-memory ablation mode, the indirect-branch fast lookup
 * table, and the profile counters the cold-code instrumentation updates.
 */

#ifndef EL_CORE_LAYOUT_HH
#define EL_CORE_LAYOUT_HH

#include <cstdint>

namespace el::core
{

/** Offsets (from the runtime area base) used by emitted code. */
namespace rt
{

constexpr int64_t fp_tos = 0x00;       //!< u8: canonical x87 TOS.
constexpr int64_t fp_tag = 0x01;       //!< u8: bit i = slot i valid.
constexpr int64_t mmx_domain = 0x02;   //!< u8: 1 = MMX values current.
constexpr int64_t xmm_format = 0x04;   //!< u32: nibble per XMM register.
constexpr int64_t fp_mem_stack = 0x10; //!< 8 x 16B: in-memory FP stack.
constexpr int64_t scratch = 0x90;      //!< 8 x 8B spill slots.

constexpr int64_t lookup_table = 0x1000; //!< 16B entries {eip, target}.
constexpr int64_t profile_base = 0x8000; //!< u32 counters, bump-allocated.

constexpr uint64_t area_size = 0x80000;

/** XMM physical-representation codes stored in the format word. */
enum XmmRep : uint8_t
{
    XmmInt = 0, //!< GR pair holds the raw 16 bytes.
    XmmPs = 1,  //!< FR pair holds 2x2 packed singles (raw bits).
    XmmPd = 2,  //!< FR pair holds two doubles as FP values.
};

/** Offset of the lookup-table entry for guest @p eip: bits [2, 12)
 *  of the EIP pick one of 1024 direct-mapped entries (the hash
 *  EmitEnv::endIndirect emits). */
constexpr int64_t
lookupSlot(uint32_t eip)
{
    return lookup_table + static_cast<int64_t>((eip >> 2) & 0x3ff) * 16;
}

/** Nibble of register @p i inside the format word. */
constexpr uint32_t
formatShift(unsigned i)
{
    return (i & 7) * 4;
}

/** Format word with all eight registers set to @p rep. */
constexpr uint32_t
uniformFormatWord(XmmRep rep)
{
    uint32_t w = 0;
    for (unsigned i = 0; i < 8; ++i)
        w |= static_cast<uint32_t>(rep) << formatShift(i);
    return w;
}

} // namespace rt
} // namespace el::core

#endif // EL_CORE_LAYOUT_HH
