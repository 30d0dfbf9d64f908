#include "noc/router.hh"

namespace canon
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

} // namespace canon
