/**
 * @file
 * The abstract capability lattice for static capability-flow analysis
 * (cheriot-verify).
 *
 * Each register holds an AbstractCap: either an *Exact* capability —
 * the analyzer knows the precise architectural value, and transfer
 * functions are the concrete guarded-manipulation operations from
 * cap::Capability — or *Unknown*, a summary tracking only three-valued
 * attributes (tagged? local? sealed?). Joining unequal Exact values
 * degrades to Unknown with merged attributes, so the lattice has
 * finite height and the fixpoint terminates.
 *
 * The interprocedural summary layer adds a third kind, *Param*: "the
 * value this register (or some other register) held on entry to the
 * function under summary analysis". Param values survive only CMove
 * (every real manipulation degrades them to Unknown), so a register
 * whose value is Param(i) at every return point is *definitely* the
 * caller's entry value of register i — the fact function summaries
 * are built from. Joining two different Params, or a Param with
 * anything else, degrades to Unknown, preserving finite height.
 *
 * The zero-false-positive discipline rests on this split: checks fire
 * only on facts that hold on *every* execution reaching a program
 * point (an Exact value, or a definite Yes/No attribute), never on a
 * Maybe.
 */

#ifndef CHERIOT_VERIFY_LATTICE_H
#define CHERIOT_VERIFY_LATTICE_H

#include "cap/capability.h"
#include "isa/encoding.h"

#include <string>

namespace cheriot::verify
{

/** Three-valued truth: definitely no, definitely yes, or unknown. */
enum class Tri : uint8_t
{
    No,
    Yes,
    Maybe,
};

/** Least upper bound of two three-valued facts. */
constexpr Tri
joinTri(Tri a, Tri b)
{
    return a == b ? a : Tri::Maybe;
}

constexpr Tri
triOf(bool value)
{
    return value ? Tri::Yes : Tri::No;
}

const char *triName(Tri t);

/** One register's abstract value. */
struct AbstractCap
{
    enum class Kind : uint8_t
    {
        Exact,   ///< value is the precise architectural capability.
        Unknown, ///< only the tri-state attributes are known.
        Param,   ///< the entry value of register paramIndex (summary
                 ///< analysis only; never appears in a finding pass
                 ///< entry state).
    };

    Kind kind = Kind::Exact;
    cap::Capability value; ///< Valid iff kind == Exact.
    uint8_t paramIndex = 0; ///< Valid iff kind == Param.

    /** Attributes when Unknown or Param (derived from value when
     * Exact). A Param's attributes are all Maybe: nothing is known
     * about the caller's entry values. */
    Tri taggedAttr = Tri::Maybe;
    Tri localAttr = Tri::Maybe;
    Tri sealedAttr = Tri::Maybe;

    /** The null capability (what register clearing produces). */
    static AbstractCap exact(const cap::Capability &c)
    {
        AbstractCap a;
        a.kind = Kind::Exact;
        a.value = c;
        return a;
    }

    /** An integer result: untagged, addressable value if known. */
    static AbstractCap integer(uint32_t value = 0)
    {
        return exact(cap::Capability::fromInt(value));
    }

    /** A fully unknown value. */
    static AbstractCap unknown(Tri tagged = Tri::Maybe,
                               Tri local = Tri::Maybe,
                               Tri sealed = Tri::Maybe)
    {
        AbstractCap a;
        a.kind = Kind::Unknown;
        a.taggedAttr = tagged;
        a.localAttr = local;
        a.sealedAttr = sealed;
        return a;
    }

    /** An unknown *integer* (untagged data of unknown value). */
    static AbstractCap unknownInt()
    {
        return unknown(Tri::No, Tri::No, Tri::No);
    }

    /** The entry value of register @p index (summary analysis). */
    static AbstractCap param(uint8_t index)
    {
        AbstractCap a;
        a.kind = Kind::Param;
        a.paramIndex = index;
        return a;
    }

    bool isExact() const { return kind == Kind::Exact; }
    bool isParam() const { return kind == Kind::Param; }
    bool isParamOf(uint8_t index) const
    {
        return kind == Kind::Param && paramIndex == index;
    }

    /** @name Definite facts (valid regardless of kind) @{ */
    Tri tagged() const
    {
        return isExact() ? triOf(value.tag()) : taggedAttr;
    }
    Tri local() const
    {
        return isExact() ? triOf(value.isLocal()) : localAttr;
    }
    Tri sealed() const
    {
        return isExact() ? triOf(value.isSealed()) : sealedAttr;
    }
    bool definitelyTagged() const { return tagged() == Tri::Yes; }
    bool definitelyUntagged() const { return tagged() == Tri::No; }
    bool definitelyLocal() const { return local() == Tri::Yes; }
    bool definitelySealed() const { return sealed() == Tri::Yes; }
    bool definitelyUnsealed() const { return sealed() == Tri::No; }
    /** @} */

    /** Integer view: the address when Exact. */
    bool hasKnownAddress() const { return isExact(); }
    uint32_t address() const { return value.address(); }

    /** Least upper bound. */
    AbstractCap join(const AbstractCap &other) const;

    bool operator==(const AbstractCap &other) const;

    /** Compact rendering for diagnostics ("exact <cap>" / "tag=? ..."). */
    std::string toString() const;
};

/** The abstract machine state at one program point: the 16-entry
 * register file plus the program counter capability. */
struct AbstractState
{
    AbstractCap regs[isa::kNumRegs];
    AbstractCap pcc;

    AbstractCap &reg(unsigned index) { return regs[index]; }
    const AbstractCap &reg(unsigned index) const { return regs[index]; }

    /** Writes respect the hard-wired zero register. */
    void write(unsigned index, const AbstractCap &value)
    {
        if (index != 0) {
            regs[index] = value;
        }
    }

    AbstractState join(const AbstractState &other) const;
    bool operator==(const AbstractState &other) const;

    /** Multi-line rendering of all non-null registers. */
    std::string toString() const;
};

} // namespace cheriot::verify

#endif // CHERIOT_VERIFY_LATTICE_H
