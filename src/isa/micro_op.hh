/**
 * @file
 * The lowered form of an instruction, decoded once per issue.
 *
 * Time-lapsed SIMD sends one instruction down a PE row and every PE
 * executes the same word 3 cycles after its west neighbour (Section 2),
 * so the row decodes it once. The model does the same:
 * InstPipeline::issue lowers each Instruction into a MicroOp that
 * carries every operand's region and offset in the unified address
 * space, and the PE stages read those instead of classifying an
 * address on every cycle.
 */

#ifndef CANON_ISA_MICRO_OP_HH
#define CANON_ISA_MICRO_OP_HH

#include "isa/address_space.hh"
#include "isa/instruction.hh"

namespace canon
{

/** One operand address with its pre-classified location. */
struct Operand
{
    Addr addr = addrspace::kNullAddr;
    AddrRegion region = AddrRegion::Null;
    Addr offset = 0; //!< addrspace::offset(addr)

    static constexpr Operand
    lower(Addr a)
    {
        return Operand{a, addrspace::region(a), addrspace::offset(a)};
    }
};

struct MicroOp
{
    Instruction inst;
    Operand op1;
    Operand op2;
    Operand res;
    /** inst.isNop(): the PE stages treat this word as a bubble. */
    bool nop = true;

    static constexpr MicroOp
    lower(const Instruction &i)
    {
        return MicroOp{i, Operand::lower(i.op1), Operand::lower(i.op2),
                       Operand::lower(i.res), i.isNop()};
    }
};

/** The lowered NOP word: what an empty pipeline stage holds. */
inline constexpr MicroOp kNopMicroOp = MicroOp::lower(nopInst());

} // namespace canon

#endif // CANON_ISA_MICRO_OP_HH
