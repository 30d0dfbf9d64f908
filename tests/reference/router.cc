#include "reference/router.hh"

#include "common/logging.hh"

namespace canon
{
namespace ref
{

Router::Router(StatGroup &stats) : hops_(stats.counter("routerHops")) {}

void
Router::bindIn(Dir d, DataChannel *ch)
{
    in_[static_cast<int>(d)] = ch;
}

void
Router::bindOut(Dir d, DataChannel *ch)
{
    out_[static_cast<int>(d)] = ch;
}

void
Router::beginCycle()
{
    usedIn_.fill(false);
    usedOut_.fill(false);
}

bool
Router::hasInput(Dir d) const
{
    auto *ch = in_[static_cast<int>(d)];
    return ch && !ch->empty();
}

Vec4
Router::readIn(Dir d)
{
    auto *ch = in_[static_cast<int>(d)];
    panicIf(!ch, "Router: no channel bound at ", dirName(d), "_IN");
    panicIf(usedIn_[static_cast<int>(d)],
            "Router: second ", dirName(d),
            "_IN transfer in one cycle (one per direction per cycle)");
    usedIn_[static_cast<int>(d)] = true;
    ++hops_;
    Vec4 v = ch->front();
    ch->pop();
    return v;
}

void
Router::writeOut(Dir d, const Vec4 &v)
{
    auto *ch = out_[static_cast<int>(d)];
    panicIf(!ch, "Router: no channel bound at ", dirName(d), "_OUT");
    panicIf(usedOut_[static_cast<int>(d)],
            "Router: second ", dirName(d),
            "_OUT transfer in one cycle (one per direction per cycle)");
    usedOut_[static_cast<int>(d)] = true;
    ++hops_;
    ch->push(v);
}

} // namespace ref
} // namespace canon
