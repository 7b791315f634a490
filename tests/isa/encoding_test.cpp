/**
 * @file
 * Encoder/decoder round-trip tests over the full instruction set,
 * plus spot checks against hand-assembled RISC-V words.
 */

#include "isa/encoding.h"

#include "util/rng.h"

#include <gtest/gtest.h>

#include <vector>

namespace cheriot::isa
{
namespace
{

/** Ops with their operand shapes, for randomised round-trips. */
struct Shape
{
    Op op;
    bool hasRd, hasRs1, hasRs2;
    int32_t immLo, immHi;
    uint32_t immStep;
    bool hasCsr;
};

const std::vector<Shape> &
shapes()
{
    static const std::vector<Shape> kShapes = {
        {Op::Lui, true, false, false, INT32_MIN, INT32_MAX, 1 << 12, false},
        {Op::Auipc, true, false, false, INT32_MIN, INT32_MAX, 1 << 12,
         false},
        {Op::Jal, true, false, false, -(1 << 20), (1 << 20) - 2, 2, false},
        {Op::Jalr, true, true, false, -2048, 2047, 1, false},
        {Op::Beq, false, true, true, -4096, 4094, 2, false},
        {Op::Bne, false, true, true, -4096, 4094, 2, false},
        {Op::Blt, false, true, true, -4096, 4094, 2, false},
        {Op::Bge, false, true, true, -4096, 4094, 2, false},
        {Op::Bltu, false, true, true, -4096, 4094, 2, false},
        {Op::Bgeu, false, true, true, -4096, 4094, 2, false},
        {Op::Lb, true, true, false, -2048, 2047, 1, false},
        {Op::Lh, true, true, false, -2048, 2047, 1, false},
        {Op::Lw, true, true, false, -2048, 2047, 1, false},
        {Op::Lbu, true, true, false, -2048, 2047, 1, false},
        {Op::Lhu, true, true, false, -2048, 2047, 1, false},
        {Op::Clc, true, true, false, -2048, 2047, 1, false},
        {Op::Sb, false, true, true, -2048, 2047, 1, false},
        {Op::Sh, false, true, true, -2048, 2047, 1, false},
        {Op::Sw, false, true, true, -2048, 2047, 1, false},
        {Op::Csc, false, true, true, -2048, 2047, 1, false},
        {Op::Addi, true, true, false, -2048, 2047, 1, false},
        {Op::Slti, true, true, false, -2048, 2047, 1, false},
        {Op::Sltiu, true, true, false, -2048, 2047, 1, false},
        {Op::Xori, true, true, false, -2048, 2047, 1, false},
        {Op::Ori, true, true, false, -2048, 2047, 1, false},
        {Op::Andi, true, true, false, -2048, 2047, 1, false},
        {Op::Slli, true, true, false, 0, 31, 1, false},
        {Op::Srli, true, true, false, 0, 31, 1, false},
        {Op::Srai, true, true, false, 0, 31, 1, false},
        {Op::Add, true, true, true, 0, 0, 1, false},
        {Op::Sub, true, true, true, 0, 0, 1, false},
        {Op::Sll, true, true, true, 0, 0, 1, false},
        {Op::Slt, true, true, true, 0, 0, 1, false},
        {Op::Sltu, true, true, true, 0, 0, 1, false},
        {Op::Xor, true, true, true, 0, 0, 1, false},
        {Op::Srl, true, true, true, 0, 0, 1, false},
        {Op::Sra, true, true, true, 0, 0, 1, false},
        {Op::Or, true, true, true, 0, 0, 1, false},
        {Op::And, true, true, true, 0, 0, 1, false},
        {Op::Mul, true, true, true, 0, 0, 1, false},
        {Op::Mulh, true, true, true, 0, 0, 1, false},
        {Op::Mulhsu, true, true, true, 0, 0, 1, false},
        {Op::Mulhu, true, true, true, 0, 0, 1, false},
        {Op::Div, true, true, true, 0, 0, 1, false},
        {Op::Divu, true, true, true, 0, 0, 1, false},
        {Op::Rem, true, true, true, 0, 0, 1, false},
        {Op::Remu, true, true, true, 0, 0, 1, false},
        {Op::Csrrw, true, true, false, 0, 0, 1, true},
        {Op::Csrrs, true, true, false, 0, 0, 1, true},
        {Op::Csrrc, true, true, false, 0, 0, 1, true},
        {Op::Csrrwi, true, false, false, 0, 31, 1, true},
        {Op::Csrrsi, true, false, false, 0, 31, 1, true},
        {Op::Csrrci, true, false, false, 0, 31, 1, true},
        {Op::CGetPerm, true, true, false, 0, 0, 1, false},
        {Op::CGetType, true, true, false, 0, 0, 1, false},
        {Op::CGetBase, true, true, false, 0, 0, 1, false},
        {Op::CGetLen, true, true, false, 0, 0, 1, false},
        {Op::CGetTop, true, true, false, 0, 0, 1, false},
        {Op::CGetTag, true, true, false, 0, 0, 1, false},
        {Op::CGetAddr, true, true, false, 0, 0, 1, false},
        {Op::CSeal, true, true, true, 0, 0, 1, false},
        {Op::CUnseal, true, true, true, 0, 0, 1, false},
        {Op::CAndPerm, true, true, true, 0, 0, 1, false},
        {Op::CSetAddr, true, true, true, 0, 0, 1, false},
        {Op::CIncAddr, true, true, true, 0, 0, 1, false},
        {Op::CIncAddrImm, true, true, false, -2048, 2047, 1, false},
        {Op::CSetBounds, true, true, true, 0, 0, 1, false},
        {Op::CSetBoundsExact, true, true, true, 0, 0, 1, false},
        {Op::CSetBoundsImm, true, true, false, 0, 4095, 1, false},
        {Op::CTestSubset, true, true, true, 0, 0, 1, false},
        {Op::CSetEqualExact, true, true, true, 0, 0, 1, false},
        {Op::CMove, true, true, false, 0, 0, 1, false},
        {Op::CClearTag, true, true, false, 0, 0, 1, false},
        {Op::CRrl, true, true, false, 0, 0, 1, false},
        {Op::CRam, true, true, false, 0, 0, 1, false},
        {Op::CSealEntry, true, true, false, 0, 2, 1, false},
        {Op::CSpecialRw, true, true, false, 28, 31, 1, false},
    };
    return kShapes;
}

TEST(Encoding, RoundTripAllShapes)
{
    Rng rng(7);
    for (const Shape &shape : shapes()) {
        for (int trial = 0; trial < 400; ++trial) {
            Inst inst;
            inst.op = shape.op;
            inst.rd = shape.hasRd ? rng.below(kNumRegs) : 0;
            inst.rs1 = shape.hasRs1 ? rng.below(kNumRegs) : 0;
            inst.rs2 = shape.hasRs2 ? rng.below(kNumRegs) : 0;
            if (shape.immLo != shape.immHi) {
                const uint64_t span =
                    (static_cast<int64_t>(shape.immHi) - shape.immLo) /
                        shape.immStep +
                    1;
                inst.imm = static_cast<int32_t>(
                    int64_t{shape.immLo} +
                    static_cast<int64_t>((rng.next() % span) *
                                         shape.immStep));
            }
            if (shape.hasCsr) {
                inst.csr = static_cast<uint16_t>(rng.below(4096));
            }
            const uint32_t word = encode(inst);
            const Inst decoded = decode(word);
            EXPECT_EQ(decoded, inst)
                << opName(shape.op) << " word 0x" << std::hex << word
                << "\n got: " << disassemble(decoded)
                << "\n want: " << disassemble(inst);
        }
    }
}

TEST(Encoding, FixedInstructions)
{
    EXPECT_EQ(encode({Op::Ecall, 0, 0, 0, 0, 0}), 0x00000073u);
    EXPECT_EQ(encode({Op::Ebreak, 0, 0, 0, 0, 0}), 0x00100073u);
    EXPECT_EQ(encode({Op::Mret, 0, 0, 0, 0, 0}), 0x30200073u);
    EXPECT_EQ(decode(0x00000073).op, Op::Ecall);
    EXPECT_EQ(decode(0x00100073).op, Op::Ebreak);
    EXPECT_EQ(decode(0x30200073).op, Op::Mret);
}

TEST(Encoding, KnownRiscvWords)
{
    // addi a0, a0, 1  ->  0x00150513
    EXPECT_EQ(encode({Op::Addi, A0, A0, 0, 1, 0}), 0x00150513u);
    // add a0, a1, a2  ->  0x00c58533
    EXPECT_EQ(encode({Op::Add, A0, A1, A2, 0, 0}), 0x00c58533u);
    // lw a0, 8(sp)    ->  0x00812503
    EXPECT_EQ(encode({Op::Lw, A0, Sp, 0, 8, 0}), 0x00812503u);
    // sw a0, 12(sp)   ->  0x00a12623
    EXPECT_EQ(encode({Op::Sw, 0, Sp, A0, 12, 0}), 0x00a12623u);
    // beq a0, a1, +8  ->  0x00b50463
    EXPECT_EQ(encode({Op::Beq, 0, A0, A1, 8, 0}), 0x00b50463u);
    // jal ra, +16     ->  0x010000ef
    EXPECT_EQ(encode({Op::Jal, Ra, 0, 0, 16, 0}), 0x010000efu);
    // lui a0, 0x12345 -> 0x12345537
    EXPECT_EQ(encode({Op::Lui, A0, 0, 0, 0x12345 << 12, 0}), 0x12345537u);
}

TEST(Encoding, IllegalWordsDecodeAsIllegal)
{
    EXPECT_EQ(decode(0x00000000).op, Op::Illegal);
    EXPECT_EQ(decode(0xffffffff).op, Op::Illegal);
    // Register specifiers >= 16 are illegal in RV32E.
    // addi x17, x0, 0 would be 0x00000893.
    EXPECT_EQ(decode(0x00000893).op, Op::Illegal);
}

TEST(Encoding, DisassemblerProducesText)
{
    const Inst inst{Op::Addi, A0, A1, 0, -4, 0};
    EXPECT_EQ(disassemble(inst), "addi a0, a1, -4");
    EXPECT_EQ(disassemble({Op::Clc, A0, Sp, 0, 16, 0}), "clc a0, 16(sp)");
}

} // namespace
} // namespace cheriot::isa
