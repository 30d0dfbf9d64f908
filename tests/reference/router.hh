/**
 * @file
 * Frozen reference model: the per-PE router over reference channels.
 *
 * Router itself is unchanged by the micro-op rewrite, but it is typed
 * on the channel class; this copy binds ref::ChannelFifo so the
 * reference PE runs on the reference channels end to end.
 *
 * It lives in namespace canon::ref and is built only into the tests,
 * which drive it beside the production model and require identical
 * behaviour cycle by cycle. Do not optimise it: its value is that it
 * stays the straightforward implementation.
 */

#ifndef CANON_TESTS_REFERENCE_ROUTER_HH
#define CANON_TESTS_REFERENCE_ROUTER_HH

#include <array>

#include "common/stats.hh"
#include "common/types.hh"
#include "reference/channel_fifo.hh"

namespace canon
{
namespace ref
{

using DataChannel = ChannelFifo<Vec4>;

class Router
{
  public:
    explicit Router(StatGroup &stats);

    /** Attach the channel delivering data *into* this PE from @p d. */
    void bindIn(Dir d, DataChannel *ch);

    /** Attach the channel carrying data *out of* this PE towards @p d. */
    void bindOut(Dir d, DataChannel *ch);

    DataChannel *inChannel(Dir d) const
    {
        return in_[static_cast<int>(d)];
    }
    DataChannel *outChannel(Dir d) const
    {
        return out_[static_cast<int>(d)];
    }

    /** Reset per-cycle direction-usage accounting. */
    void beginCycle();

    bool hasInput(Dir d) const;

    /** Consume the head of the @p d input channel (once per cycle). */
    Vec4 readIn(Dir d);

    /** Push onto the @p d output channel (once per cycle). */
    void writeOut(Dir d, const Vec4 &v);

    bool
    canWriteOut(Dir d) const
    {
        auto *ch = out_[static_cast<int>(d)];
        return ch && ch->canPush();
    }

  private:
    std::array<DataChannel *, kNumDirs> in_{};
    std::array<DataChannel *, kNumDirs> out_{};
    std::array<bool, kNumDirs> usedIn_{};
    std::array<bool, kNumDirs> usedOut_{};
    Counter &hops_;
};

} // namespace ref
} // namespace canon

#endif // CANON_TESTS_REFERENCE_ROUTER_HH
