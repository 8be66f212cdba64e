// Discrete-event scheduler.
//
// Events are totally ordered by (time, key) so simulations are deterministic:
// the key is an insertion sequence number (or an explicit key the fleet
// engine supplies), so two events at the same instant fire in the order they
// were scheduled. Every (time, key) pair is unique, so any exact min-queue
// runs the same sequence; only the layout below is a matter of speed.
//
// Storage comes in three kinds, all ordered by 24-byte {time, key, slot}
// heap entries; the high bits of `slot` say which kind holds the payload.
//
//  - Hot pool: closures of at most 24 bytes (timer ticks capturing a pointer
//    or two). Most events are these, so their pool is kept dense.
//  - Cold pool: any other closure, in 88-byte SmallFunction slots, so a
//    capture of a Packet plus two words never touches the heap.
//  - Packet lines: a line is a FIFO ring of {time, key, Packet} items that
//    all run one plain `handler(ctx, packet)`. It carries the simulator's
//    fixed-delay packet hops (link propagation, ACK return paths, the fleet
//    engine's access, next-hop and ACK hops): no closure is built or moved,
//    and only the line's head item sits in a heap, so the heaps hold one
//    entry per busy line instead of one per packet in flight.
//
// Pool slots stay put; a closure is moved once, when its event fires.
//
// Two tiers. Entries up to the main tier's end time go to the main heap,
// later ones to the far heap, so every main entry sorts before every far
// entry and the main minimum is the global one. Setup-time events seconds
// ahead (a fleet's flow starts) wait in the far heap instead of deepening
// every sift of the main one. When the main heap runs empty, its end time
// moves to just below the far minimum plus kFarWindow, and every far entry
// up to it moves over. They leave the far heap in ascending order, and a
// sorted array is already a heap. kFarWindow is well above the tick
// interval and the per-packet delays, so almost every follow-up lands in
// the main heap.
//
// One sift per event. run_next reads the main root but leaves it in place as
// a hole. The first main-heap push while the event runs (usually its one
// follow-up: a tick, the next dequeue, or a line's successor) fills the hole
// and sifts down once, where a pop followed by a push would sift twice. An
// event that pushes nothing closes the hole after its callback: the last
// entry moves to the root and sifts down. The hole never outlives run_next,
// which must not be re-entered from a callback.
//
// Ordering with lines: a line only ever holds items in strictly increasing
// (time, key) order, and its head is in a heap. Every item outside the
// heaps therefore sorts after some item inside them, so the heap minimum is
// the minimum over everything pending, and popping a line's head and pushing
// its successor keeps that true. Events pop in exactly the (time, key) order
// they would have had as closures. Fallback rule: an item that does not sort
// strictly after its line's tail (a caller that schedules out of order, e.g.
// an explicit key that goes backwards) is not appended. It becomes an
// ordinary cold-pool event with the same (time, key) and handler, so the
// order is unchanged. A constant-delay hop whose keys come from one counter
// never falls back.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "obs/profiler.h"
#include "sim/packet.h"
#include "util/fifo_ring.h"
#include "util/small_function.h"
#include "util/types.h"

namespace libra {

class EventQueue {
 public:
  // Cold slots, sized for the largest simulator capture (a line's fallback
  // closure: Packet + handler + context); anything bigger degrades to one
  // heap allocation inside SmallFunction.
  using Callback = SmallFunction<88>;
  // Hot slots: timer/tick closures capturing at most three words.
  using TimerCallback = SmallFunction<24>;

  static_assert(sizeof(TimerCallback) <= 40,
                "hot slot outgrew its budget (storage + ops pointer)");
  static_assert(sizeof(Callback) <= 104,
                "cold slot outgrew its budget (storage + ops pointer)");
  static_assert(sizeof(TimerCallback) < sizeof(Callback),
                "hot/cold split is pointless unless hot slots are smaller");

  /// Width of the main heap's time range after a refill (see the header).
  static constexpr SimDuration kFarWindow = msec(100);

  SimTime now() const { return now_; }

  /// Schedules `fn` at absolute time t. The slot pool is picked at compile
  /// time: closures that fit a TimerCallback inline go to the hot pool,
  /// everything else to the cold pool.
  template <typename Fn>
  void schedule_at(SimTime t, Fn&& fn) {
    if (t < now_) throw std::invalid_argument("EventQueue: scheduling in the past");
    std::uint32_t slot;
    if constexpr (fits_hot<Fn>) {
      slot = kHotBit | claim(hot_slots_, free_hot_,
                             TimerCallback(std::forward<Fn>(fn)));
    } else {
      slot = claim(cold_slots_, free_cold_, Callback(std::forward<Fn>(fn)));
    }
    push(Key{t, (*seq_src_)++, slot});
    note_scheduled();
  }

  /// Schedules a pre-built callback with an explicit ordering key instead of
  /// the internal insertion sequence. Explicit keys let the fleet engine
  /// give a cross-shard packet a (source shard, source sequence) key that
  /// sorts the same whether the queue is the single serial queue or a
  /// per-shard one — the foundation of its bitwise serial==sharded
  /// guarantee. Those packets ride lines (schedule_line_keyed), which land
  /// here only on the fallback.
  void schedule_keyed(SimTime t, std::uint64_t key, Callback fn) {
    if (t < now_) throw std::invalid_argument("EventQueue: scheduling in the past");
    push(Key{t, key, claim(cold_slots_, free_cold_, std::move(fn))});
    note_scheduled();
  }

  /// Handler of a packet line; `ctx` is the pointer given to add_line.
  using PacketHandler = void (*)(void* ctx, const Packet& pkt);
  using LineId = std::uint32_t;

  /// Creates an empty packet line whose items run `fn(ctx, packet)`.
  LineId add_line(PacketHandler fn, void* ctx) {
    if (lines_.size() > kIndexMask) throw std::length_error("EventQueue: too many lines");
    lines_.push_back(Line{fn, ctx, FifoRing<LineItem>()});
    return static_cast<LineId>(lines_.size() - 1);
  }

  /// Schedules `pkt` on `line`, `d` from now, keyed from the same sequence
  /// source schedule_at draws from.
  void schedule_line_in(LineId line, SimDuration d, const Packet& pkt) {
    const SimTime t = now_ + d;
    if (t < now_) throw std::invalid_argument("EventQueue: scheduling in the past");
    schedule_line_keyed(line, t, (*seq_src_)++, pkt);
  }

  /// Schedules `pkt` on `line` at absolute time t with an explicit ordering
  /// key (see schedule_keyed). An item that does not sort strictly after the
  /// line's tail falls back to a cold-pool event (see the header comment).
  void schedule_line_keyed(LineId line, SimTime t, std::uint64_t key,
                           const Packet& pkt) {
    if (t < now_) throw std::invalid_argument("EventQueue: scheduling in the past");
    Line& ln = lines_[line];
    if (ln.items.empty()) {
      push(Key{t, key, kLineBit | line});
    } else {
      const LineItem& tail = ln.items.back();
      if (t < tail.time || (t == tail.time && key <= tail.key)) {
        const PacketHandler fn = ln.fn;
        void* ctx = ln.ctx;
        schedule_keyed(t, key, [fn, ctx, pkt] { fn(ctx, pkt); });
        return;
      }
    }
    ln.items.push_back(LineItem{t, key, pkt});
    note_scheduled();
  }

  /// Redirects the insertion-sequence counter used by schedule_at/schedule_in.
  /// The fleet engine points this at a per-shard counter so ordering keys are
  /// a pure function of the shard topology; nullptr restores the default
  /// internal counter. The counter's high bits are part of the key, so
  /// sources must hand out globally unique values.
  void set_seq_source(std::uint64_t* src) { seq_src_ = src ? src : &next_seq_; }

  /// Called right before each popped event runs, with the event's ordering
  /// key. The fleet engine's serial mode uses it to recover which shard an
  /// event belongs to (the key's high bits) and switch the sequence source
  /// accordingly. One predicted-not-taken branch when unset.
  using PopHook = void (*)(void* ctx, std::uint64_t key);
  void set_pop_hook(PopHook hook, void* ctx) {
    pop_hook_ = hook;
    pop_ctx_ = ctx;
  }

  template <typename Fn>
  void schedule_in(SimDuration d, Fn&& fn) {
    schedule_at(now_ + d, std::forward<Fn>(fn));
  }

  bool empty() const {
    return heap_.size() == static_cast<std::size_t>(hole_) && far_.empty();
  }
  /// Events scheduled but not yet run, closures and line items alike.
  std::size_t pending() const { return pending_; }

  /// Events executed since construction (events/sec telemetry for benches).
  std::uint64_t processed() const { return processed_; }

  /// High-water mark of pending events (event-queue depth telemetry).
  std::size_t max_pending() const { return max_pending_; }

  /// Executes the earliest event; returns false when the queue is empty.
  bool run_next() {
    assert(!hole_ && "EventQueue::run_next re-entered from a callback");
    if (!load()) return false;
    PROF_SCOPE("sim.event");
    const Key key = heap_[0];
    hole_ = true;
    const CloseHole close{this};
    now_ = key.time;
    ++processed_;
    --pending_;
    if (pop_hook_) pop_hook_(pop_ctx_, key.seq);
    // Move the payload out and recycle its slot *before* invoking: the
    // callback is free to schedule new events, which may reuse the slot.
    if (key.slot & kHotBit) {
      const std::uint32_t s = key.slot & kIndexMask;
      TimerCallback cb = std::move(hot_slots_[s]);
      free_hot_.push_back(s);
      cb();
    } else if (key.slot & kLineBit) {
      Line& ln = lines_[key.slot & kIndexMask];
      const Packet pkt = ln.items.front().pkt;
      ln.items.pop_front();
      if (!ln.items.empty()) {
        const LineItem& next = ln.items.front();
        push(Key{next.time, next.key, key.slot});
      }
      ln.fn(ln.ctx, pkt);
    } else {
      Callback cb = std::move(cold_slots_[key.slot]);
      free_cold_.push_back(key.slot);
      cb();
    }
    return true;
  }

  /// Runs every event with time <= t, then advances the clock to exactly t.
  void run_until(SimTime t) {
    while (load() && heap_[0].time <= t) run_next();
    if (t > now_) now_ = t;
  }

  /// Runs every event with time strictly < t and leaves the clock at the last
  /// executed event. Window processing for the sharded engine: a lookahead
  /// window [T, T+L) must exclude its right edge, where cross-shard messages
  /// merged at the barrier may still land.
  void run_before(SimTime t) {
    while (load() && heap_[0].time < t) run_next();
  }

  void run_for(SimDuration d) { run_until(now_ + d); }

  /// Events currently parked in the hot (timer) vs cold (payload) slot pool
  /// — pool-sizing telemetry for the event-queue benches.
  std::size_t hot_slot_count() const { return hot_slots_.size(); }
  std::size_t cold_slot_count() const { return cold_slots_.size(); }

 private:
  struct Key {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  static bool earlier(const Key& a, const Key& b) {
    return a.time != b.time ? a.time < b.time : a.seq < b.seq;
  }

  // Min-heap sifts that place `k` at index i's final position, stopping as
  // soon as the order holds.
  static void sift_up(std::vector<Key>& h, std::size_t i, const Key& k) {
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!earlier(k, h[parent])) break;
      h[i] = h[parent];
      i = parent;
    }
    h[i] = k;
  }

  static void sift_down(std::vector<Key>& h, std::size_t i, const Key& k) {
    const std::size_t n = h.size();
    for (std::size_t child = 2 * i + 1; child < n; child = 2 * i + 1) {
      if (child + 1 < n && earlier(h[child + 1], h[child])) ++child;
      if (!earlier(h[child], k)) break;
      h[i] = h[child];
      i = child;
    }
    h[i] = k;
  }

  // The two high bits of Key::slot tag the kind (hot pool, line, or neither:
  // cold pool); the low 30 bits index into it.
  static constexpr std::uint32_t kHotBit = 1u << 31;
  static constexpr std::uint32_t kLineBit = 1u << 30;
  static constexpr std::uint32_t kIndexMask = kLineBit - 1;

  struct LineItem {
    SimTime time;
    std::uint64_t key;
    Packet pkt;
  };

  struct Line {
    PacketHandler fn;
    void* ctx;
    FifoRing<LineItem> items;  // strictly increasing (time, key); head in heap_
  };

  // Same criteria SmallFunction<24> uses for inline storage: routing on them
  // means nothing ever lands in a hot slot only to heap-allocate inside it.
  template <typename Fn>
  static constexpr bool fits_hot =
      sizeof(std::decay_t<Fn>) <= 24 &&
      alignof(std::decay_t<Fn>) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<std::decay_t<Fn>>;

  void push(const Key& key) {
    if (key.time > near_end_) {
      far_.push_back(key);
      sift_up(far_, far_.size() - 1, key);
    } else if (hole_) {
      hole_ = false;
      sift_down(heap_, 0, key);
    } else {
      heap_.push_back(key);
      sift_up(heap_, heap_.size() - 1, key);
    }
  }

  /// Makes heap_[0] the earliest pending entry, refilling the main heap from
  /// the far one if it ran empty; false when nothing is pending.
  bool load() {
    if (!heap_.empty()) return true;
    if (far_.empty()) return false;
    const SimTime first = far_[0].time;
    near_end_ = first + std::min(kFarWindow - 1, kSimTimeMax - first);  // saturates
    while (!far_.empty() && far_[0].time <= near_end_) {
      heap_.push_back(far_[0]);
      const Key last = far_.back();
      far_.pop_back();
      if (!far_.empty()) sift_down(far_, 0, last);
    }
    return true;
  }

  // Fills the hole run_next left at the root with the last entry.
  struct CloseHole {
    EventQueue* q;
    ~CloseHole() {
      if (!q->hole_) return;
      q->hole_ = false;
      const Key last = q->heap_.back();
      q->heap_.pop_back();
      if (!q->heap_.empty()) sift_down(q->heap_, 0, last);
    }
  };

  void note_scheduled() {
    if (++pending_ > max_pending_) max_pending_ = pending_;
  }

  template <typename Slot>
  static std::uint32_t claim(std::vector<Slot>& slots,
                             std::vector<std::uint32_t>& free, Slot cb) {
    std::uint32_t slot;
    if (free.empty()) {
      slot = static_cast<std::uint32_t>(slots.size());
      slots.push_back(std::move(cb));
    } else {
      slot = free.back();
      free.pop_back();
      slots[slot] = std::move(cb);
    }
    return slot;
  }

  std::vector<Key> heap_;  // main tier: time <= near_end_; root is a hole while hole_
  std::vector<Key> far_;   // far tier: time > near_end_
  SimTime near_end_ = kFarWindow - 1;
  bool hole_ = false;
  std::vector<TimerCallback> hot_slots_;  // indexed by Key::slot low bits
  std::vector<Callback> cold_slots_;
  std::vector<std::uint32_t> free_hot_;
  std::vector<std::uint32_t> free_cold_;
  std::vector<Line> lines_;  // indexed by Key::slot low bits
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t* seq_src_ = &next_seq_;
  PopHook pop_hook_ = nullptr;
  void* pop_ctx_ = nullptr;
  std::uint64_t processed_ = 0;
  std::size_t pending_ = 0;
  std::size_t max_pending_ = 0;
};

}  // namespace libra
