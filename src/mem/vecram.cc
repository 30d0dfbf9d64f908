#include "mem/vecram.hh"

namespace canon
{

VecRam::VecRam(std::string name, int slots, int elem_bytes,
               StatGroup &stats)
    : name_(std::move(name)), elemBytes_(elem_bytes),
      data_(static_cast<std::size_t>(slots)),
      reads_(stats.counter(name_ + "Reads")),
      writes_(stats.counter(name_ + "Writes"))
{
    panicIf(slots <= 0, "VecRam ", name_, ": slots must be positive");
    panicIf(elem_bytes != 1 && elem_bytes != 2 && elem_bytes != 4,
            "VecRam ", name_, ": unsupported element width ", elem_bytes);
}

void
VecRam::poke(int slot, const Vec4 &v)
{
    checkSlot(slot);
    data_[static_cast<std::size_t>(slot)] = v;
}

const Vec4 &
VecRam::peek(int slot) const
{
    checkSlot(slot);
    return data_[static_cast<std::size_t>(slot)];
}

} // namespace canon
