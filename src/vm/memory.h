#ifndef BIOPERF_VM_MEMORY_H_
#define BIOPERF_VM_MEMORY_H_

#include <cassert>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

#include "ir/ir.h"

namespace bioperf::vm {

/** Little-endian load of a T at @a p, sign-extended to 64 bits. */
template <typename T>
inline int64_t
loadAs(const uint8_t *p)
{
    T v;
    std::memcpy(&v, p, sizeof(T));
    return v;
}

/** Stores the low sizeof(T) bytes of @a v at @a p, little-endian. */
template <typename T>
inline void
storeAs(uint8_t *p, int64_t v)
{
    const T t = static_cast<T>(v);
    std::memcpy(p, &t, sizeof(T));
}

/**
 * Flat byte-addressable memory backing a Program's regions.
 *
 * Addresses are the virtual addresses recorded in the IR's regions,
 * offset internally by Program::kBaseAddress. Integer accesses are
 * little-endian, sign-extended on load and truncated on store,
 * matching the IR's semantics.
 */
class Memory
{
  public:
    /** Allocates zero-initialized storage of @a size bytes. */
    explicit Memory(uint64_t size);

    uint64_t size() const
    {
        return bytes_.size() + ir::Program::kBaseAddress;
    }
    bool contains(uint64_t addr, uint8_t access_size) const
    {
        return addr >= ir::Program::kBaseAddress &&
               addr + access_size <= size();
    }

    int64_t loadInt(uint64_t addr, uint8_t access_size) const;
    void storeInt(uint64_t addr, uint8_t access_size, int64_t v);
    double loadFp(uint64_t addr) const;
    void storeFp(uint64_t addr, double v);

    /** Zeroes all bytes. */
    void clear();

    /**
     * Host storage of address Program::kBaseAddress onwards, for a
     * hot loop that keeps it in a register and inlines its own
     * accesses (the interpreter). Such a loop asserts contains()
     * itself, as the accessors above do.
     */
    uint8_t *data() { return bytes_.data(); }

  private:
    const uint8_t *at(uint64_t addr) const
    {
        return bytes_.data() + (addr - ir::Program::kBaseAddress);
    }
    uint8_t *at(uint64_t addr)
    {
        return bytes_.data() + (addr - ir::Program::kBaseAddress);
    }

    std::vector<uint8_t> bytes_;
};

/**
 * Typed host-side view of one region, used by application drivers to
 * fill kernel inputs and read back results.
 */
template <typename T>
class ArrayView
{
  public:
    ArrayView(Memory &mem, const ir::Region &region)
        : mem_(&mem), base_(region.base),
          count_(region.sizeBytes / sizeof(T))
    {
        assert(region.elemSize == sizeof(T));
    }

    uint64_t size() const { return count_; }

    T get(uint64_t i) const;
    void set(uint64_t i, T v);

  private:
    Memory *mem_;
    uint64_t base_;
    uint64_t count_;
};

template <typename T>
T
ArrayView<T>::get(uint64_t i) const
{
    assert(i < count_);
    if constexpr (std::is_floating_point_v<T>) {
        return static_cast<T>(mem_->loadFp(base_ + i * sizeof(T)));
    } else {
        return static_cast<T>(mem_->loadInt(base_ + i * sizeof(T),
                                            sizeof(T)));
    }
}

template <typename T>
void
ArrayView<T>::set(uint64_t i, T v)
{
    assert(i < count_);
    if constexpr (std::is_floating_point_v<T>) {
        mem_->storeFp(base_ + i * sizeof(T), static_cast<double>(v));
    } else {
        mem_->storeInt(base_ + i * sizeof(T), sizeof(T),
                       static_cast<int64_t>(v));
    }
}

} // namespace bioperf::vm

#endif // BIOPERF_VM_MEMORY_H_
