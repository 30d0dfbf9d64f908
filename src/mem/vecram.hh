/**
 * @file
 * Vector-granular on-chip RAM: the storage behind both the per-PE data
 * memory (4 KB of INT8, read as 4-element vectors) and the dual-ported
 * scratchpad (Vec4 psum entries).
 *
 * Port discipline is structural in Canon: an instruction can name each
 * memory at most once per operand role, and the 3-stage pipeline
 * separates read (LOAD) from write (COMMIT) -- "the read ports ... are
 * accessed only during the LOAD stage ... write ports ... exclusively
 * during the COMMIT stage" (Section 3.1). The PE model enforces the
 * compile-time operand restrictions; VecRam checks bounds and counts
 * accesses for the power model.
 */

#ifndef CANON_MEM_VECRAM_HH
#define CANON_MEM_VECRAM_HH

#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace canon
{

class VecRam
{
  public:
    /**
     * @param name      instance name for diagnostics
     * @param slots     number of Vec4 entries
     * @param elem_bytes bytes per lane element as fabricated (1 for the
     *                   INT8 data memory, 4 for the psum scratchpad);
     *                   only capacity accounting depends on it
     */
    VecRam(std::string name, int slots, int elem_bytes, StatGroup &stats);

    int slots() const { return static_cast<int>(data_.size()); }
    std::size_t sizeBytes() const
    {
        return data_.size() * kSimdWidth * elemBytes_;
    }

    const Vec4 &
    read(int slot)
    {
        checkSlot(slot);
        ++reads_;
        return data_[static_cast<std::size_t>(slot)];
    }

    void
    write(int slot, const Vec4 &v)
    {
        checkSlot(slot);
        ++writes_;
        data_[static_cast<std::size_t>(slot)] = v;
    }

    /** Direct initialization (data placement before execution). */
    void poke(int slot, const Vec4 &v);

    /** Direct inspection without touching access counters. */
    const Vec4 &peek(int slot) const;

    void
    fill(const Vec4 &v)
    {
        for (auto &slot : data_)
            slot = v;
    }

  private:
    void
    checkSlot(int slot) const
    {
        panicIf(slot < 0 || slot >= slots(), "VecRam ", name_, ": slot ",
                slot, " out of ", slots());
    }

    std::string name_;
    int elemBytes_;
    std::vector<Vec4> data_;
    Counter &reads_;
    Counter &writes_;
};

} // namespace canon

#endif // CANON_MEM_VECRAM_HH
