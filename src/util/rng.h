/**
 * @file
 * Deterministic pseudo-random number generation for workloads and
 * property tests.
 *
 * We use xoshiro128** rather than std::mt19937 so that workload streams
 * are reproducible across standard-library implementations and cheap to
 * seed per-test.
 */

#ifndef CHERIOT_UTIL_RNG_H
#define CHERIOT_UTIL_RNG_H

#include <cstdint>

namespace cheriot
{

/** Small, fast, deterministic PRNG (xoshiro128**). */
class Rng
{
  public:
    explicit constexpr Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL)
    {
        // SplitMix64 expansion of the seed into the state words.
        uint64_t x = seed;
        for (auto &word : state_) {
            x += 0x9e3779b97f4a7c15ULL;
            uint64_t z = x;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
            word = static_cast<uint32_t>(z ^ (z >> 31));
        }
    }

    /**
     * Derive a 64-bit seed for an independent child stream.
     *
     * The (seed, streamId) pair is run through the SplitMix64
     * finaliser, whose avalanche guarantees that adjacent stream ids
     * land in unrelated regions of the state space. Fault campaigns
     * use one stream per injection site so that adding draws at one
     * site never perturbs another — the property that makes a
     * campaign reproducible bit-for-bit from a single master seed.
     */
    static constexpr uint64_t
    deriveStreamSeed(uint64_t seed, uint64_t streamId)
    {
        uint64_t z = seed + (streamId + 1) * 0x9e3779b97f4a7c15ULL;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    /** An independent generator for stream @p streamId under @p seed. */
    static constexpr Rng
    forStream(uint64_t seed, uint64_t streamId)
    {
        return Rng(deriveStreamSeed(seed, streamId));
    }

    /** Next raw 32-bit value. */
    constexpr uint32_t
    next()
    {
        const uint32_t result = rotl(state_[1] * 5, 7) * 9;
        const uint32_t t = state_[1] << 9;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 11);
        return result;
    }

    /** Next raw 64-bit value (two 32-bit draws). */
    constexpr uint64_t
    next64()
    {
        const uint64_t hi = next();
        return (hi << 32) | next();
    }

    /** Uniform value in [0, bound). @p bound must be nonzero. */
    constexpr uint32_t
    below(uint32_t bound)
    {
        // Lemire-style rejection-free multiply-shift; slight bias is
        // irrelevant for workload generation.
        return static_cast<uint32_t>(
            (static_cast<uint64_t>(next()) * bound) >> 32);
    }

    /** Uniform value in [lo, hi] inclusive. */
    constexpr uint32_t
    range(uint32_t lo, uint32_t hi)
    {
        return lo + below(hi - lo + 1);
    }

    /** Bernoulli draw with probability @p numer / @p denom. */
    constexpr bool
    chance(uint32_t numer, uint32_t denom)
    {
        return below(denom) < numer;
    }

    /** Snapshot state: the four state words. */
    template <class V>
    void fields(V &v)
    {
        v(state_);
    }

  private:
    static constexpr uint32_t
    rotl(uint32_t x, int k)
    {
        return (x << k) | (x >> (32 - k));
    }

    uint32_t state_[4] = {};
};

} // namespace cheriot

#endif // CHERIOT_UTIL_RNG_H
