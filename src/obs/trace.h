// Flight-recorder tracer: fixed-size per-track ring buffers of typed events
// stamped with simulated cycles — one track per vCPU plus device tracks
// (the NIC). When a ring wraps, the oldest events are dropped and counted
// in an explicit per-track `dropped_events` counter, never silently.
//
// Events carry a class bit:
//   kArch   — architecturally determined: for the same program and seed the
//             stream is byte-identical across every engine mode
//             ({blocks, trace, D-TLB} on/off) — asserted by the differential
//             fuzz and tests/obs_test.cc.
//   kEngine — describes the execution machinery itself (trace-tier
//             compiles/invalidations) and legitimately differs across modes.
//
// Recording never touches the simulated clock, so an attached recorder is
// invisible to the machine ("observation is free in simulated time").
//
// Export: raw JSONL (`WriteJsonl`), converted to Chrome trace-event JSON by
// tools/trace2chrome.py for viewing in Perfetto.
#ifndef SRC_OBS_TRACE_H_
#define SRC_OBS_TRACE_H_

#include <string>
#include <vector>

#include "src/hw/types.h"

namespace palladium {
namespace obs {

enum class EventType : u8 {
  kIrqRaise = 0,    // device asserted an IRQ line        {irq, queue}
  kIrqDeliver,      // CPU took an interrupt gate         {vector, cpl}
  kIrqEoi,          // kernel EOI'd the in-service IRQ    {irq, 0}
  kCrossingEnter,   // SPL protection crossing into a kext {function_id, arg}
  kCrossingExit,    // crossing returned/aborted          {function_id, ok}
  kContextSwitch,   // scheduler dispatched a process     {pid, 0}
  kTlbShootdown,    // cross-CPU TLB shootdown            {page, remote_cpus}
  kTraceCompile,    // hot loop lowered to a uop trace    {eip, insns per iteration}
  kTraceInvalidate, // hot trace died to a code write     {eip, 0}
  kNapiPoll,        // NAPI poll batch drained            {queue, frames}
  kFrameDma,        // NIC DMA'd a frame into the ring    {queue, bytes}
  kFrameClassify,   // filter classified a frame batch    {frames, matched}
  kFrameEnqueue,    // frame delivered to a worker queue  {queue_owner, depth}
  kFrameRecv,       // worker picked the frame up (pkt_recv) {pid, bytes}
  kFrameTx,         // response hit the TX ring           {queue, bytes}
};
inline constexpr u32 kNumEventTypes = 15;

const char* EventTypeName(EventType t);

enum class EventClass : u8 { kArch = 0, kEngine };

struct Event {
  u64 cycle = 0;
  u32 arg0 = 0;
  u32 arg1 = 0;
  EventType type = EventType::kIrqRaise;
  EventClass cls = EventClass::kArch;

  bool operator==(const Event& o) const {
    return cycle == o.cycle && arg0 == o.arg0 && arg1 == o.arg1 &&
           type == o.type && cls == o.cls;
  }
  bool operator!=(const Event& o) const { return !(*this == o); }
};

class FlightRecorder {
 public:
  static constexpr u32 kDefaultCapacity = 8192;

  FlightRecorder() = default;

  // (Re)arms the recorder with `num_tracks` rings of `capacity` events each.
  void Reset(u32 num_tracks, u32 capacity = kDefaultCapacity);

  bool enabled() const { return !tracks_.empty(); }
  u32 num_tracks() const { return static_cast<u32>(tracks_.size()); }

  void SetTrackName(u32 track, std::string name);
  const std::string& track_name(u32 track) const { return tracks_[track].name; }

  void Record(u32 track, u64 cycle, EventType type, EventClass cls,
              u32 arg0 = 0, u32 arg1 = 0) {
    Track& t = tracks_[track];
    ++t.total;
    if (t.ring.size() < capacity_) {
      t.ring.push_back(Event{cycle, arg0, arg1, type, cls});
      return;
    }
    t.ring[t.head] = Event{cycle, arg0, arg1, type, cls};
    t.head = (t.head + 1) % capacity_;
    ++t.dropped;
  }

  // Events on `track` in record order (oldest surviving first).
  std::vector<Event> Events(u32 track) const;
  // Only the architecturally-determined (mode-invariant) events.
  std::vector<Event> ArchEvents(u32 track) const;

  u64 dropped_events(u32 track) const { return tracks_[track].dropped; }
  u64 recorded_events(u32 track) const { return tracks_[track].total; }
  u64 TotalDropped() const;

  // One JSON object per line: a meta line per track (name, totals, drops)
  // followed by every surviving event.
  std::string ToJsonl() const;
  bool WriteJsonl(const std::string& path) const;

 private:
  struct Track {
    std::vector<Event> ring;
    std::string name;
    u32 head = 0;     // oldest element once the ring is full
    u64 total = 0;    // events ever recorded
    u64 dropped = 0;  // oldest events overwritten on wrap
  };

  std::vector<Track> tracks_;
  u32 capacity_ = 0;
};

}  // namespace obs
}  // namespace palladium

#endif  // SRC_OBS_TRACE_H_
