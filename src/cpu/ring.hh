/**
 * @file
 * Fixed-capacity ring buffer for the core's in-order pipeline queues.
 *
 * The fetch queue, ROB, LQ and SQ are FIFOs whose occupancy dispatch
 * and fetch already bound (robEntries, lqEntries, sqEntries and the
 * fetch skid). The steady-state cycle loop must not allocate, so a
 * Ring is sized once at construction, keeps its entries contiguous,
 * and never allocates again. There is no grow path: pushing past the
 * capacity is a simulator bug and panics.
 *
 * Storage is rounded up to a power of two so a logical position maps
 * to its slot with a mask. Iterators are random access (std::lower_bound
 * and std::reverse_iterator work on a wrapped range) and are
 * invalidated by any push or pop.
 */

#ifndef DGSIM_CPU_RING_HH
#define DGSIM_CPU_RING_HH

#include <bit>
#include <cstddef>
#include <iterator>
#include <type_traits>
#include <vector>

#include "common/log.hh"

namespace dgsim
{

/** Bounded FIFO: push at the back, pop at either end. */
template <typename T>
class Ring
{
  public:
    /** Random-access iterator over the live entries, oldest first. */
    template <typename V>
    class Iter
    {
      public:
        using iterator_category = std::random_access_iterator_tag;
        using value_type = std::remove_const_t<V>;
        using difference_type = std::ptrdiff_t;
        using pointer = V *;
        using reference = V &;

        Iter() = default;
        Iter(V *slots, std::size_t mask, std::size_t pos)
            : slots_(slots), mask_(mask), pos_(pos)
        {}

        reference operator*() const { return slots_[pos_ & mask_]; }
        pointer operator->() const { return &**this; }
        reference
        operator[](difference_type n) const
        {
            return *(*this + n);
        }

        Iter &operator++() { ++pos_; return *this; }
        Iter &operator--() { --pos_; return *this; }
        Iter operator++(int) { Iter old = *this; ++pos_; return old; }
        Iter operator--(int) { Iter old = *this; --pos_; return old; }
        Iter &
        operator+=(difference_type n)
        {
            pos_ += static_cast<std::size_t>(n);
            return *this;
        }
        Iter &operator-=(difference_type n) { return *this += -n; }
        friend Iter operator+(Iter it, difference_type n) { return it += n; }
        friend Iter operator+(difference_type n, Iter it) { return it += n; }
        friend Iter operator-(Iter it, difference_type n) { return it -= n; }
        friend difference_type
        operator-(const Iter &a, const Iter &b)
        {
            return static_cast<difference_type>(a.pos_ - b.pos_);
        }
        // Positions are unmasked (head + offset), so they order the
        // entries even across the wrap point.
        friend bool
        operator==(const Iter &a, const Iter &b)
        {
            return a.pos_ == b.pos_;
        }
        friend auto
        operator<=>(const Iter &a, const Iter &b)
        {
            return a.pos_ <=> b.pos_;
        }

      private:
        V *slots_ = nullptr;
        std::size_t mask_ = 0;
        std::size_t pos_ = 0;
    };

    using iterator = Iter<T>;
    using const_iterator = Iter<const T>;
    using reverse_iterator = std::reverse_iterator<iterator>;
    using const_reverse_iterator = std::reverse_iterator<const_iterator>;

    /** A ring holding at most @p capacity entries. */
    explicit Ring(std::size_t capacity)
        : slots_(std::bit_ceil(capacity)), mask_(slots_.size() - 1),
          capacity_(capacity)
    {}

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    std::size_t capacity() const { return capacity_; }

    T &front() { return slots_[head_]; }
    const T &front() const { return slots_[head_]; }
    T &back() { return slots_[(head_ + size_ - 1) & mask_]; }
    const T &back() const { return slots_[(head_ + size_ - 1) & mask_]; }

    void
    push_back(const T &value)
    {
        DGSIM_ASSERT(size_ < capacity_, "ring overflow");
        slots_[(head_ + size_) & mask_] = value;
        ++size_;
    }

    void
    pop_front()
    {
        head_ = (head_ + 1) & mask_;
        --size_;
    }

    void pop_back() { --size_; }

    void
    clear()
    {
        head_ = 0;
        size_ = 0;
    }

    iterator begin() { return {slots_.data(), mask_, head_}; }
    iterator end() { return {slots_.data(), mask_, head_ + size_}; }
    const_iterator begin() const { return {slots_.data(), mask_, head_}; }
    const_iterator
    end() const
    {
        return {slots_.data(), mask_, head_ + size_};
    }
    reverse_iterator rbegin() { return reverse_iterator(end()); }
    reverse_iterator rend() { return reverse_iterator(begin()); }
    const_reverse_iterator
    rbegin() const
    {
        return const_reverse_iterator(end());
    }
    const_reverse_iterator
    rend() const
    {
        return const_reverse_iterator(begin());
    }

  private:
    std::vector<T> slots_;
    std::size_t mask_;
    std::size_t capacity_;
    std::size_t head_ = 0; ///< Slot of the oldest entry.
    std::size_t size_ = 0;
};

} // namespace dgsim

#endif // DGSIM_CPU_RING_HH
