// Event traces for the happens-before analysis (paper §III).
//
// A Trace records, per MPI task, the sequence of reads/writes to named
// global variables plus the synchronizing events (message send/recv pairs
// and global barriers). The Analyzer derives the happens-before partial
// order and decides which variables are HLS-eligible; the Advisor
// proposes `single` placements — the paper's future-work automatic
// detection, built on its §III formalism.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hls/registry.hpp"  // HlsError

namespace hlsmpc::hb {

enum class EventKind { read, write, send, recv, barrier };

struct Event {
  int id = -1;
  int task = -1;
  EventKind kind = EventKind::read;
  std::string var;      // read/write
  long value = 0;       // read/write
  int peer = -1;        // send: destination, recv: source
  long tag = 0;         // send/recv matching
  int barrier_id = -1;  // barrier wave
};

class Trace {
 public:
  explicit Trace(int ntasks);

  int ntasks() const { return ntasks_; }
  const std::vector<Event>& events() const { return events_; }
  /// Event ids of `task`, in program order.
  const std::vector<int>& program_order(int task) const;

  void read(int task, const std::string& var, long value);
  void write(int task, const std::string& var, long value);
  void send(int task, int to, long tag = 0);
  void recv(int task, int from, long tag = 0);
  /// Global barrier: one event per task, same wave.
  void barrier();

  /// Variables appearing in the trace (sorted, unique).
  std::vector<std::string> variables() const;

 private:
  Event& append(int task, EventKind kind);

  int ntasks_;
  int next_barrier_ = 0;
  std::vector<Event> events_;
  std::vector<std::vector<int>> per_task_;
};

/// One n-party synchronization — a barrier or single episode, a
/// collective call, an RMA fence — as the trace messages that carry
/// exactly the ordering it guarantees. Each member calls arrive() where
/// it enters and release() where it leaves (both may sit at one point).
/// The arrive() of `rep` (all_to_all, fan_in) receives every other
/// member's arrival: call it where the rep has seen them all, e.g. just
/// before its release.
struct SyncWave {
  enum class Shape {
    all_to_all,  ///< every entry before every exit, through `rep`
    fan_in,      ///< every entry before the exit of the root `rep`
    fan_out,     ///< the entry of the root `rep` before every exit
    prefix,      ///< a chain in `members` order: entry before later exits
  };
  Shape shape = Shape::all_to_all;
  std::vector<int> members;
  int rep = -1;  ///< representative or root; a member
  long tag = 0;  ///< tag and tag + 1 carry no other message of the trace

  void arrive(Trace& t, int task) const;
  void release(Trace& t, int task) const;
};

}  // namespace hlsmpc::hb
