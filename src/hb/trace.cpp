#include "hb/trace.hpp"

#include <algorithm>

namespace hlsmpc::hb {

Trace::Trace(int ntasks) : ntasks_(ntasks), per_task_(static_cast<std::size_t>(ntasks)) {
  if (ntasks < 1) throw hls::HlsError("Trace: need at least one task");
}

const std::vector<int>& Trace::program_order(int task) const {
  if (task < 0 || task >= ntasks_) throw hls::HlsError("Trace: bad task");
  return per_task_[static_cast<std::size_t>(task)];
}

Event& Trace::append(int task, EventKind kind) {
  if (task < 0 || task >= ntasks_) throw hls::HlsError("Trace: bad task");
  Event e;
  e.id = static_cast<int>(events_.size());
  e.task = task;
  e.kind = kind;
  events_.push_back(e);
  per_task_[static_cast<std::size_t>(task)].push_back(e.id);
  return events_.back();
}

void Trace::read(int task, const std::string& var, long value) {
  Event& e = append(task, EventKind::read);
  e.var = var;
  e.value = value;
}

void Trace::write(int task, const std::string& var, long value) {
  Event& e = append(task, EventKind::write);
  e.var = var;
  e.value = value;
}

void Trace::send(int task, int to, long tag) {
  if (to < 0 || to >= ntasks_) throw hls::HlsError("Trace: bad peer");
  Event& e = append(task, EventKind::send);
  e.peer = to;
  e.tag = tag;
}

void Trace::recv(int task, int from, long tag) {
  if (from < 0 || from >= ntasks_) throw hls::HlsError("Trace: bad peer");
  Event& e = append(task, EventKind::recv);
  e.peer = from;
  e.tag = tag;
}

void Trace::barrier() {
  const int wave = next_barrier_++;
  for (int t = 0; t < ntasks_; ++t) {
    Event& e = append(t, EventKind::barrier);
    e.barrier_id = wave;
  }
}

std::vector<std::string> Trace::variables() const {
  std::vector<std::string> vars;
  for (const Event& e : events_) {
    if (e.kind == EventKind::read || e.kind == EventKind::write) {
      vars.push_back(e.var);
    }
  }
  std::sort(vars.begin(), vars.end());
  vars.erase(std::unique(vars.begin(), vars.end()), vars.end());
  return vars;
}

void SyncWave::arrive(Trace& t, int task) const {
  if (shape == Shape::fan_out) return;
  if (shape == Shape::prefix) {
    const auto it = std::find(members.begin(), members.end(), task);
    if (it != members.begin()) t.recv(task, *(it - 1), tag);
  } else if (task != rep) {
    t.send(task, rep, tag);
  } else {
    for (int m : members) {
      if (m != rep) t.recv(rep, m, tag);
    }
  }
}

void SyncWave::release(Trace& t, int task) const {
  if (shape == Shape::fan_in) return;
  if (shape == Shape::prefix) {
    const auto it = std::find(members.begin(), members.end(), task);
    if (it + 1 < members.end()) t.send(task, *(it + 1), tag);
  } else if (task != rep) {
    t.recv(task, rep, tag + 1);
  } else {
    for (int m : members) {
      if (m != rep) t.send(rep, m, tag + 1);
    }
  }
}

}  // namespace hlsmpc::hb
