/**
 * @file
 * Streaming 64-bit hasher for content-addressed caches: FNV-1a over
 * byte fields, plus a one-step whole-word mix (MurmurHash64A's block
 * mix) for hot keys built from many fixed-width fields.
 *
 * The trial-merge memo cache (hyperblock/merge.cpp) keys failed merge
 * attempts by the *contents* of the participating blocks: any committed
 * transform that touches a block changes its hash, so stale entries can
 * never be consulted — the cache is self-invalidating and needs no
 * eviction hooks. The hash is not collision-free; callers must only cache
 * facts whose worst case under a collision is a wrong *negative* cost
 * decision, never a wrong transform (see DESIGN.md section 10 for why
 * the merge memo satisfies this).
 */

#ifndef CHF_SUPPORT_HASH_H
#define CHF_SUPPORT_HASH_H

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>

#include "support/bitvector.h"

namespace chf {

/** Incremental hash over a stream of typed fields. */
class Hash64
{
  public:
    void
    bytes(const void *data, size_t n)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (size_t i = 0; i < n; ++i) {
            state ^= p[i];
            state *= 1099511628211ull;
        }
    }

    void
    u8(uint8_t v)
    {
        bytes(&v, sizeof(v));
    }

    void
    u32(uint32_t v)
    {
        bytes(&v, sizeof(v));
    }

    void
    u64(uint64_t v)
    {
        bytes(&v, sizeof(v));
    }

    /** Hash the exact bit pattern (distinguishes -0.0, NaN payloads). */
    void
    f64(double v)
    {
        uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }

    void
    str(const std::string &s)
    {
        u64(s.size());
        bytes(s.data(), s.size());
    }

    /**
     * Mix a whole 64-bit word in one step: several times cheaper than
     * bytes() on eight bytes. Streams that use it hash differently from
     * byte streams of the same data.
     */
    void
    word(uint64_t k)
    {
        constexpr uint64_t m = 0xc6a4a7935bd1e995ull;
        k *= m;
        k ^= k >> 47;
        k *= m;
        state ^= k;
        state *= m;
    }

    /**
     * Hash the *set-bit contents* of @p bv, independent of its universe
     * size: padded and unpadded vectors with the same members hash
     * equal (the liveness universe grows by policy, not by content).
     * One word() step per set bit.
     */
    void
    bits(const BitVector &bv)
    {
        uint64_t count = 0;
        bv.forEach([&](uint32_t b) {
            word(b);
            ++count;
        });
        word(count);
    }

    uint64_t digest() const { return state; }

  private:
    uint64_t state = 14695981039346656037ull; // FNV offset basis
};

} // namespace chf

#endif // CHF_SUPPORT_HASH_H
