/**
 * @file
 * 64-bit FNV-1a, the one hash behind every digest, job key, shard
 * assignment and checkpoint seal in dgsim.
 *
 * Two step widths are in use and both are FNV-1a proper: mix() folds a
 * whole 64-bit word per step (state digests), mixBytes()/mixLe64() fold
 * one byte per step (text and serialized values). Every value these
 * produce is persisted somewhere (result lines, journals, checkpoints),
 * so none of them may change.
 */

#ifndef DGSIM_COMMON_HASH_HH
#define DGSIM_COMMON_HASH_HH

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace dgsim::fnv
{

inline constexpr std::uint64_t kOffset = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kPrime = 0x100000001b3ULL;

/** kPrime^n. Mixing n zero words is one multiply by this. */
constexpr std::uint64_t
primePower(unsigned n)
{
    std::uint64_t power = 1;
    for (unsigned i = 0; i < n; ++i)
        power *= kPrime;
    return power;
}

/** One word-wide step: fold all of @p word into @p hash at once. */
inline void
mix(std::uint64_t &hash, std::uint64_t word)
{
    hash = (hash ^ word) * kPrime;
}

/** Byte-wise FNV-1a over a byte range, chained via @p hash. */
inline void
mixBytes(std::uint64_t &hash, const void *data, std::size_t size)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < size; ++i)
        hash = (hash ^ bytes[i]) * kPrime;
}

/** Byte-wise FNV-1a over the eight bytes of @p value, low byte first. */
inline void
mixLe64(std::uint64_t &hash, std::uint64_t value)
{
    for (unsigned i = 0; i < 8; ++i)
        hash = (hash ^ ((value >> (i * 8)) & 0xff)) * kPrime;
}

/** Byte-wise FNV-1a of @p bytes from the offset basis. */
inline std::uint64_t
hashBytes(std::string_view bytes)
{
    std::uint64_t hash = kOffset;
    mixBytes(hash, bytes.data(), bytes.size());
    return hash;
}

} // namespace dgsim::fnv

#endif // DGSIM_COMMON_HASH_HH
