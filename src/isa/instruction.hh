/**
 * @file
 * The Canon PE instruction (Section 3.1):
 *
 *     <inst> ::= <op> <op1_addr> <op2_addr> <res_addr>
 *
 * plus the ROUTER_CONF fields visible in Figure 4: a pass-through route
 * mask that switches the circuit NoC independently of the compute
 * operands (used for psum bypass N->S and meta/data forwarding W->E),
 * and the spatial-mode hold bit of Appendix D.
 *
 * Instructions are encodable to a 64-bit word; encode/decode round-trips
 * exactly (property-tested), which is what travels on the instruction-
 * dedicated NoC.
 */

#ifndef CANON_ISA_INSTRUCTION_HH
#define CANON_ISA_INSTRUCTION_HH

#include <cstdint>
#include <string>

#include "isa/address_space.hh"
#include "isa/opcode.hh"

namespace canon
{

/** Pass-through routes switchable by one instruction. */
enum RouteBit : std::uint8_t
{
    kRouteN2S = 1 << 0, //!< forward north-in to south-out (psum bypass)
    kRouteW2E = 1 << 1, //!< forward west-in to east-out (operand stream)
    kRouteS2N = 1 << 2,
    kRouteE2W = 1 << 3,
};

struct Instruction
{
    OpCode op = OpCode::Nop;
    Addr op1 = addrspace::kNullAddr;
    Addr op2 = addrspace::kNullAddr;
    Addr res = addrspace::kNullAddr;
    std::uint8_t route = 0;
    bool hold = false;

    constexpr bool
    isNop() const
    {
        return op == OpCode::Nop && route == 0;
    }

    /** Pack into the 64-bit word carried by the instruction NoC. */
    std::uint64_t encode() const;

    /** Unpack; panics on an illegal opcode field. */
    static Instruction decode(std::uint64_t word);

    /** Disassemble, e.g. "SVMAC W_IN, DMEM[3] -> SPAD[1] [N>S]". */
    std::string toString() const;

    friend constexpr bool
    operator==(const Instruction &a, const Instruction &b)
    {
        return a.op == b.op && a.op1 == b.op1 && a.op2 == b.op2 &&
               a.res == b.res && a.route == b.route && a.hold == b.hold;
    }
};

/** A NOP instruction constant. */
constexpr Instruction
nopInst()
{
    return Instruction{};
}

} // namespace canon

#endif // CANON_ISA_INSTRUCTION_HH
