/**
 * @file
 * The instruction-dedicated NoC of one PE row (Figures 2 and 3).
 *
 * The orchestrator pushes one encoded instruction per cycle into the
 * head of the row; the word shifts one stage per cycle. PE column c
 * taps the pipeline at depth kIssueStagger * c, so it observes the
 * instruction the orchestrator issued 3c cycles earlier -- the
 * time-lapsed SIMD stagger. "an instruction ... is issued to the first
 * PE in cycle 1, then traverses a 3-cycle pipeline before reaching the
 * second PE in cycle 4" (Section 2).
 *
 * The hardware shifts the encoded 64-bit word (encode/decode
 * round-trips exactly). The model lowers the word once, at issue, into
 * a MicroOp (isa/micro_op.hh) and keeps the stages in a ring: a shift
 * moves the head index back one slot and writes the new word there, so
 * no stage is copied and every PE of the row reads the same lowered
 * operands by reference.
 *
 * freeze() supports the spatial execution mode of Appendix D: after a
 * configuration phase has shifted per-column instructions into place,
 * freezing stops propagation and every PE keeps re-executing its
 * latched instruction.
 */

#ifndef CANON_NOC_INST_PIPELINE_HH
#define CANON_NOC_INST_PIPELINE_HH

#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "isa/micro_op.hh"
#include "sim/clocked.hh"

namespace canon
{

/** Cycles between consecutive PEs seeing the same instruction. */
constexpr int kIssueStagger = 3;

class InstPipeline final : public Clocked
{
  public:
    /** Issues stage externally; all work happens at commit. */
    static constexpr bool kHasTickCompute = false;

    explicit InstPipeline(int columns);

    /** Lower and stage the instruction entering the row this cycle. */
    void issue(const Instruction &inst);

    /** Instruction visible at PE column @p c this cycle. */
    const MicroOp &
    tap(int c) const
    {
        panicIf(c < 0 || c >= columns_, "InstPipeline: tap ", c,
                " out of ", columns_);
        return ring_[slot(static_cast<std::size_t>(kIssueStagger) *
                          static_cast<std::size_t>(c))];
    }

    /** Stop/resume shifting (spatial mode). */
    void freeze(bool on) { frozen_ = on; }
    bool frozen() const { return frozen_; }

    /**
     * True iff every stage holds the NOP word. Word-for-word: an
     * instruction with op == Nop but live address or route fields is
     * still in flight.
     */
    bool drained() const;

    int columns() const { return columns_; }

    void tickCompute() override {}
    void tickCommit() override;

  private:
    /** Ring slot of pipeline depth @p depth. */
    std::size_t
    slot(std::size_t depth) const
    {
        const std::size_t i = head_ + depth;
        return i < ring_.size() ? i : i - ring_.size();
    }

    int columns_;
    std::vector<MicroOp> ring_; //!< depth d lives at slot(d)
    std::size_t head_ = 0;
    MicroOp staged_ = kNopMicroOp;
    bool issuedThisCycle_ = false;
    bool frozen_ = false;
};

} // namespace canon

#endif // CANON_NOC_INST_PIPELINE_HH
