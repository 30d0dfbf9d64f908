/**
 * @file
 * Frozen reference model: the shift-array instruction pipeline.
 *
 * This is the row pipeline before instructions were lowered at issue:
 * stages hold decoded Instructions and a shift copies the whole stage
 * array. kIssueStagger comes from the production header.
 *
 * It lives in namespace canon::ref and is built only into the tests,
 * which drive it beside the production model and require identical
 * behaviour cycle by cycle. Do not optimise it: its value is that it
 * stays the straightforward implementation.
 */

#ifndef CANON_TESTS_REFERENCE_INST_PIPELINE_HH
#define CANON_TESTS_REFERENCE_INST_PIPELINE_HH

#include <cstdint>
#include <vector>

#include "isa/instruction.hh"
#include "noc/inst_pipeline.hh"
#include "sim/clocked.hh"

namespace canon
{
namespace ref
{

class InstPipeline final : public Clocked
{
  public:
    /** Issues stage externally; all work happens at commit. */
    static constexpr bool kHasTickCompute = false;

    explicit InstPipeline(int columns);

    /** Stage the instruction entering the row this cycle. */
    void issue(const Instruction &inst);

    /** Instruction visible at PE column @p c this cycle. */
    const Instruction &tap(int c) const;

    /** Stop/resume shifting (spatial mode). */
    void freeze(bool on) { frozen_ = on; }
    bool frozen() const { return frozen_; }

    /** True iff every stage currently holds a NOP. */
    bool drained() const;

    int columns() const { return columns_; }

    void tickCompute() override {}
    void tickCommit() override;

  private:
    // The hardware shifts the encoded 64-bit word (encode/decode
    // round-trips exactly); the model keeps stages decoded so a tap is
    // a reference into the shift array instead of a decode per PE per
    // cycle.
    int columns_;
    std::vector<Instruction> stages_;
    Instruction staged_;
    bool issuedThisCycle_ = false;
    bool frozen_ = false;
};

} // namespace ref
} // namespace canon

#endif // CANON_TESTS_REFERENCE_INST_PIPELINE_HH
