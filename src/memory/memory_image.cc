#include "memory/memory_image.hh"

#include <algorithm>

#include "common/hash.hh"

namespace dgsim
{

MemoryImage::MemoryImage(const MemoryImage &other)
    : far_words_(other.far_words_),
      footprint_words_(other.footprint_words_)
{
    pages_.resize(other.pages_.size());
    for (std::size_t i = 0; i < other.pages_.size(); ++i) {
        if (other.pages_[i])
            pages_[i] = std::make_unique<Page>(*other.pages_[i]);
    }
}

MemoryImage &
MemoryImage::operator=(const MemoryImage &other)
{
    if (this != &other) {
        MemoryImage copy(other);
        *this = std::move(copy);
    }
    return *this;
}

RegValue
MemoryImage::farRead(std::uint64_t word) const
{
    if (far_words_.empty())
        return 0;
    auto it = far_words_.find(word);
    return it == far_words_.end() ? 0 : it->second;
}

void
MemoryImage::writeSlow(std::uint64_t word, RegValue value)
{
    const std::uint64_t page = word >> kPageShift;
    if (page >= kMaxDirectPages) {
        footprint_words_ += far_words_.count(word) == 0;
        far_words_[word] = value;
        return;
    }
    if (page >= pages_.size())
        pages_.resize(page + 1);
    pages_[page] = std::make_unique<Page>();
    write(word * kWordBytes, value); // Re-enter the fast path.
}

std::vector<std::pair<Addr, RegValue>>
MemoryImage::words() const
{
    std::vector<std::pair<Addr, RegValue>> out;
    out.reserve(footprint_words_);
    for (std::size_t page = 0; page < pages_.size(); ++page) {
        const Page *p = pages_[page].get();
        if (!p)
            continue;
        for (std::uint64_t idx = 0; idx < kPageWords; ++idx) {
            if (p->written[idx >> 6] & (1ull << (idx & 63))) {
                const Addr addr =
                    ((page << kPageShift) + idx) * kWordBytes;
                out.emplace_back(addr, p->words[idx]);
            }
        }
    }
    // Overflow words all lie beyond every direct page; sort them and
    // append to keep the whole list address-ordered.
    std::vector<std::pair<Addr, RegValue>> far;
    far.reserve(far_words_.size());
    for (const auto &kv : far_words_)
        far.emplace_back(kv.first * kWordBytes, kv.second);
    std::sort(far.begin(), far.end());
    out.insert(out.end(), far.begin(), far.end());
    return out;
}

std::uint64_t
MemoryImage::digest() const
{
    std::uint64_t hash = fnv::kOffset;
    for (const auto &[addr, value] : words()) {
        fnv::mixLe64(hash, addr);
        fnv::mixLe64(hash, value);
    }
    return hash;
}

} // namespace dgsim
