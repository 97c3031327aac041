#include "vm/memory.h"

namespace bioperf::vm {

Memory::Memory(uint64_t size)
{
    assert(size >= ir::Program::kBaseAddress);
    bytes_.assign(size - ir::Program::kBaseAddress, 0);
}

int64_t
Memory::loadInt(uint64_t addr, uint8_t access_size) const
{
    assert(contains(addr, access_size));
    const uint8_t *p = at(addr);
    switch (access_size) {
      case 1:
        return loadAs<int8_t>(p);
      case 2:
        return loadAs<int16_t>(p);
      case 4:
        return loadAs<int32_t>(p);
      default:
        return loadAs<int64_t>(p);
    }
}

void
Memory::storeInt(uint64_t addr, uint8_t access_size, int64_t v)
{
    assert(contains(addr, access_size));
    uint8_t *p = at(addr);
    switch (access_size) {
      case 1:
        storeAs<int8_t>(p, v);
        break;
      case 2:
        storeAs<int16_t>(p, v);
        break;
      case 4:
        storeAs<int32_t>(p, v);
        break;
      default:
        storeAs<int64_t>(p, v);
        break;
    }
}

double
Memory::loadFp(uint64_t addr) const
{
    assert(contains(addr, 8));
    double v;
    std::memcpy(&v, at(addr), 8);
    return v;
}

void
Memory::storeFp(uint64_t addr, double v)
{
    assert(contains(addr, 8));
    std::memcpy(at(addr), &v, 8);
}

void
Memory::clear()
{
    std::fill(bytes_.begin(), bytes_.end(), 0);
}

} // namespace bioperf::vm
