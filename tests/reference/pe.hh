/**
 * @file
 * Frozen reference model: the PE before pre-lowered operands and
 * in-place stage registers.
 *
 * Every stage classifies its operand addresses with addrspace:: on
 * every cycle, and the stage registers are built, returned and copied
 * as whole StageReg values. PeMode and PeGeometry come from the
 * production header so one harness can drive both models.
 *
 * It lives in namespace canon::ref and is built only into the tests,
 * which drive it beside the production model and require identical
 * behaviour cycle by cycle. Do not optimise it: its value is that it
 * stays the straightforward implementation.
 */

#ifndef CANON_TESTS_REFERENCE_PE_HH
#define CANON_TESTS_REFERENCE_PE_HH

#include <array>
#include <string>

#include "common/stats.hh"
#include "mem/vecram.hh"
#include "pe/pe.hh"
#include "reference/inst_pipeline.hh"
#include "reference/router.hh"
#include "sim/clocked.hh"

namespace canon
{
namespace ref
{

class Pe final : public Clocked
{
  public:
    Pe(const PeGeometry &geo, int dmem_slots, int spad_slots,
       StatGroup &stats);

    void bindPipeline(InstPipeline *pipe) { pipe_ = pipe; }

    Router &router() { return router_; }
    VecRam &dmem() { return dmem_; }
    VecRam &spad() { return spad_; }

    void setMode(PeMode m) { mode_ = m; }
    PeMode mode() const { return mode_; }

    const Vec4 &reg(int r) const { return regs_[r]; }
    void pokeReg(int r, const Vec4 &v) { regs_[r] = v; }

    /** True iff no instruction is in flight in the pipeline. */
    bool idle() const;

    /** Counter read for the obs cycle accountant (a cycle with no
     *  busyCycles delta is an idle cycle). */
    std::uint64_t busyCyclesValue() const
    {
        return busyCycles_.value();
    }

    int row() const { return geo_.row; }
    int col() const { return geo_.col; }

    void tickCompute() override;
    void tickCommit() override;

  private:
    /**
     * Pipeline register between LOAD/EXECUTE and EXECUTE/COMMIT.
     * Kept trivially copyable (plain Vec4 + valid flags rather than
     * optionals) so the per-cycle register updates are flat copies.
     */
    struct StageReg
    {
        Instruction inst = nopInst();
        Vec4 a;        //!< op1 value
        Vec4 b;        //!< op2 value
        Vec4 resOld;   //!< prior contents of res (MAC accumulate)
        Vec4 west;     //!< west-in value for VvMacW
        Vec4 resultForwarded; //!< EXECUTE output (forwarding network)
        Vec4 routeN2S;
        Vec4 routeW2E;
        bool routeN2SValid = false;
        bool routeW2EValid = false;
        bool valid = false;
    };

    void commitStage(const StageReg &ex);
    StageReg executeStage(const StageReg &ld);
    StageReg loadStage(const Instruction &inst, const StageReg &fwd);

    /**
     * Spatial-mode firing rule: a held instruction executes only when
     * every port it reads has data and every port it writes has space
     * (Appendix D; the streaming mode instead relies on orchestrator
     * determinism and panics on a violated schedule).
     */
    bool spatialReady(const Instruction &inst) const;

    Vec4 readOperand(Addr a, const StageReg &fwd);
    Vec4 readPort(Dir d);
    void writeDest(Addr a, const Vec4 &v);

    PeGeometry geo_;
    std::string name_;
    VecRam dmem_;
    VecRam spad_;
    Router router_;
    std::array<Vec4, addrspace::kRegSize> regs_{};
    InstPipeline *pipe_ = nullptr;
    PeMode mode_ = PeMode::Streaming;

    StageReg ldReg_;  //!< instruction between LOAD and EXECUTE
    StageReg exReg_;  //!< instruction between EXECUTE and COMMIT
    StageReg ldNext_;
    StageReg exNext_;

    // Per-cycle port-read cache: one physical pop feeds every consumer
    // of the same input port in one instruction. Valid bits live in a
    // bitmask so clearing the cache is a single store.
    std::array<Vec4, kNumDirs> portCache_{};
    std::uint8_t portCacheValid_ = 0;

    // Per-cycle local-memory port accounting.
    int dmemReadsThisCycle_ = 0;
    int dmemWritesThisCycle_ = 0;
    int spadReadsThisCycle_ = 0;
    int spadWritesThisCycle_ = 0;

    Counter &busyCycles_;
    Counter &macOps_;
    Counter &aluOps_;
    Counter &regReads_;
    Counter &regWrites_;
};

} // namespace ref
} // namespace canon

#endif // CANON_TESTS_REFERENCE_PE_HH
