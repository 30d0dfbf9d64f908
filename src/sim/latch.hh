/**
 * @file
 * Staged-state building blocks for two-phase clocked models.
 *
 *  - Latch<T>: a register. set() stages a value during tickCompute;
 *    commit() makes it visible. get() always returns the value latched
 *    at the previous cycle boundary.
 *
 *  - ChannelFifo<T>: a small hardware FIFO between two components (e.g.
 *    a vertical psum channel between PE rows, or an orchestrator message
 *    channel). Pushes and pops staged during a cycle are applied at the
 *    commit boundary; the head read during a cycle is the pre-cycle head.
 *    Overflow and pop-from-empty panic: in Canon, orchestration is
 *    deterministic by construction, so either indicates a mis-programmed
 *    FSM (or a simulator bug), never a run-time condition to recover from.
 *    Storage is a fixed-capacity ring allocated once at construction:
 *    a staged push writes its slot past the committed tail right away
 *    (capacity is checked against committed plus staged entries, so the
 *    slot is free), and commit only moves indices.
 */

#ifndef CANON_SIM_LATCH_HH
#define CANON_SIM_LATCH_HH

#include <optional>
#include <string>
#include <vector>

#include "common/logging.hh"

namespace canon
{

template <typename T>
class Latch
{
  public:
    Latch() = default;
    explicit Latch(T init) : cur_(std::move(init)) {}

    /** Visible value (latched at the last commit). */
    const T &get() const { return cur_; }

    /** Stage a new value; visible after commit(). */
    void set(T v) { next_ = std::move(v); }

    bool pendingUpdate() const { return next_.has_value(); }

    void
    commit()
    {
        if (next_) {
            cur_ = std::move(*next_);
            next_.reset();
        }
    }

  private:
    T cur_{};
    std::optional<T> next_;
};

template <typename T>
class ChannelFifo
{
  public:
    explicit ChannelFifo(std::size_t capacity, std::string name = "chan")
        : buf_(capacity), name_(std::move(name))
    {
        panicIf(capacity == 0, "ChannelFifo ", name_, ": zero capacity");
    }

    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }
    std::size_t capacity() const { return buf_.size(); }

    /**
     * Space check for a producer this cycle. Conservative: staged pushes
     * count against capacity, staged pops do not free space until the
     * next cycle (register semantics).
     */
    bool
    canPush() const
    {
        return size_ + stagedPushes_ < buf_.size();
    }

    /** Head visible this cycle. */
    const T &
    front() const
    {
        panicIf(size_ == 0, "ChannelFifo ", name_, ": front() on empty");
        return buf_[head_];
    }

    /** Stage a push; panics on overflow (deterministic design violated). */
    void
    push(T v)
    {
        panicIf(!canPush(), "ChannelFifo ", name_, ": overflow (cap=",
                buf_.size(), ")");
        buf_[wrap(head_ + size_ + stagedPushes_)] = std::move(v);
        ++stagedPushes_;
    }

    /** Stage a pop of the current head. */
    void
    pop()
    {
        panicIf(size_ == 0, "ChannelFifo ", name_, ": pop() on empty");
        panicIf(stagedPop_, "ChannelFifo ", name_, ": double pop in cycle");
        stagedPop_ = true;
    }

    void
    commit()
    {
        if (stagedPop_) {
            head_ = wrap(head_ + 1);
            --size_;
            stagedPop_ = false;
        }
        size_ += stagedPushes_;
        stagedPushes_ = 0;
    }

    void
    clear()
    {
        head_ = size_ = stagedPushes_ = 0;
        stagedPop_ = false;
    }

  private:
    /** Ring index of @p i, for any i below twice the capacity. */
    std::size_t
    wrap(std::size_t i) const
    {
        return i < buf_.size() ? i : i - buf_.size();
    }

    std::vector<T> buf_;
    std::size_t head_ = 0;         //!< slot of the committed head
    std::size_t size_ = 0;         //!< committed entries
    std::size_t stagedPushes_ = 0; //!< written past the tail this cycle
    bool stagedPop_ = false;
    std::string name_;
};

} // namespace canon

#endif // CANON_SIM_LATCH_HH
