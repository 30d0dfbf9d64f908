#include "noc/inst_pipeline.hh"

namespace canon
{

InstPipeline::InstPipeline(int columns)
    : columns_(columns),
      ring_(static_cast<std::size_t>(kIssueStagger) * (columns - 1) + 1,
            kNopMicroOp)
{
    panicIf(columns <= 0, "InstPipeline: need at least one column");
}

void
InstPipeline::issue(const Instruction &inst)
{
    panicIf(issuedThisCycle_,
            "InstPipeline: orchestrator issued twice in one cycle");
    staged_ = MicroOp::lower(inst);
    issuedThisCycle_ = true;
}

bool
InstPipeline::drained() const
{
    for (const auto &uop : ring_)
        if (!(uop.inst == nopInst()))
            return false;
    return true;
}

void
InstPipeline::tickCommit()
{
    if (!frozen_) {
        // The deepest stage's slot becomes the new head.
        head_ = (head_ == 0 ? ring_.size() : head_) - 1;
        ring_[head_] = issuedThisCycle_ ? staged_ : kNopMicroOp;
    }
    issuedThisCycle_ = false;
}

} // namespace canon
