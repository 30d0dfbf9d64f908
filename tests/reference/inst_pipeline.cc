#include "reference/inst_pipeline.hh"

#include "common/logging.hh"

namespace canon
{
namespace ref
{

InstPipeline::InstPipeline(int columns)
    : columns_(columns),
      stages_(static_cast<std::size_t>(kIssueStagger) * (columns - 1) + 1,
              nopInst()),
      staged_(nopInst())
{
    panicIf(columns <= 0, "InstPipeline: need at least one column");
}

void
InstPipeline::issue(const Instruction &inst)
{
    panicIf(issuedThisCycle_,
            "InstPipeline: orchestrator issued twice in one cycle");
    staged_ = inst;
    issuedThisCycle_ = true;
}

const Instruction &
InstPipeline::tap(int c) const
{
    panicIf(c < 0 || c >= columns_, "InstPipeline: tap ", c, " out of ",
            columns_);
    return stages_[static_cast<std::size_t>(kIssueStagger) * c];
}

bool
InstPipeline::drained() const
{
    // Word-for-word NOP: an instruction with op == Nop but live
    // address or route fields is still in flight.
    const Instruction nop = nopInst();
    for (const auto &inst : stages_)
        if (!(inst == nop))
            return false;
    return true;
}

void
InstPipeline::tickCommit()
{
    if (!frozen_) {
        for (std::size_t i = stages_.size() - 1; i > 0; --i)
            stages_[i] = stages_[i - 1];
        stages_[0] = issuedThisCycle_ ? staged_ : nopInst();
    }
    issuedThisCycle_ = false;
    staged_ = nopInst();
}

} // namespace ref
} // namespace canon
