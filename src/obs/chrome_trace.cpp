#include "obs/chrome_trace.hpp"

#include <algorithm>
#include <cstdio>
#include <set>
#include <sstream>

namespace hlsmpc::obs {

namespace {

std::string scope_tag(const TraceNaming& naming, const Event& e) {
  if (e.sid < 0) return "";
  std::string name;
  if (naming.scope_name) name = naming.scope_name(e.sid);
  if (name.empty()) name = "sid" + std::to_string(e.sid);
  if (e.instance >= 0) name += "#" + std::to_string(e.instance);
  return name;
}

/// Microsecond timestamp with nanosecond resolution kept in the decimals.
std::string us(std::uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu.%03u",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned>(ns % 1000));
  return buf;
}

const char* category(EventKind k) {
  switch (k) {
    case EventKind::barrier:
    case EventKind::single_exec:
    case EventKind::single_wait:
    case EventKind::nowait:
      return "sync";
    case EventKind::migration:
    case EventKind::ctx_switch:
      return "sched";
    case EventKind::first_touch:
      return "storage";
    case EventKind::collective:
    case EventKind::p2p_send:
    case EventKind::p2p_recv:
      return "mpi";
    case EventKind::watchdog:
      return "fault";
    case EventKind::rma_op:
    case EventKind::rma_epoch:
      return "rma";
    case EventKind::tier_spill:
    case EventKind::tier_preread:
    case EventKind::tier_writeback:
      return "storage";
    default:
      break;
  }
  return "?";
}

std::string slice_name(const TraceNaming& naming, const Event& e) {
  std::string name = to_string(e.kind);
  switch (e.kind) {
    case EventKind::nowait:
      name += e.flag ? " claim" : " skip";
      break;
    case EventKind::migration:
      name += e.flag ? " ok" : " rejected";
      break;
    case EventKind::collective:
      name = std::string("coll ") + to_string(coll_op_of(e.arg));
      break;
    case EventKind::p2p_send:
      name += " -> " + std::to_string(e.arg);
      break;
    case EventKind::p2p_recv:
      name += " <- " + std::to_string(e.arg);
      break;
    case EventKind::rma_op:
      name = std::string("rma ") +
             to_string(static_cast<RmaOp>(e.arg));
      break;
    case EventKind::rma_epoch:
      name = e.arg == 0 ? "rma fence"
                        : (e.arg == 1 ? "rma lock shared" : "rma lock excl");
      break;
    default:
      break;
  }
  const std::string tag = scope_tag(naming, e);
  if (!tag.empty()) name += " " + tag;
  return name;
}

void emit_args(std::ostringstream& os, const Event& e) {
  os << "{\"cpu\": " << e.cpu;
  if (e.instance >= 0 && e.kind != EventKind::collective) {
    os << ", \"instance\": " << e.instance;
  }
  switch (e.kind) {
    case EventKind::first_touch:
      os << ", \"bytes\": " << e.arg;
      break;
    case EventKind::collective: {
      // The key lines up the participants of one call.
      const CollOp op = coll_op_of(e.arg);
      const std::int64_t bytes = coll_bytes_of(e.arg);
      if (bytes > 0) os << ", \"bytes\": " << bytes;
      os << ", \"alg\": \"" << to_string(coll_alg_of(e.arg))
         << "\", \"key\": \"" << key_context_of(e.arg2) << ":"
         << key_tag_of(e.arg2) << "\"";
      if (e.instance >= 0) {
        os << (op == CollOp::scan || op == CollOp::exscan ? ", \"rank\": "
                                                          : ", \"root\": ")
           << e.instance;
      }
      break;
    }
    case EventKind::migration:
      os << ", \"new_cpu\": " << e.arg;
      break;
    case EventKind::p2p_send:
    case EventKind::p2p_recv:
      os << ", \"peer\": " << e.arg << ", \"context\": "
         << key_context_of(e.arg2) << ", \"tag\": " << key_tag_of(e.arg2);
      break;
    case EventKind::ctx_switch:
      os << ", \"worker\": " << e.arg;
      break;
    case EventKind::watchdog:
      os << ", \"waited_ms\": " << e.arg << ", \"missing_mask\": " << e.arg2;
      break;
    case EventKind::rma_op:
      os << ", \"bytes\": " << e.arg2;
      break;
    case EventKind::rma_epoch:
      os << (e.arg != 0 ? ", \"target\": " : ", \"epoch\": ") << e.arg2;
      break;
    case EventKind::tier_spill:
      os << ", \"bytes\": " << e.arg << ", \"reopened\": " << e.arg2;
      break;
    case EventKind::tier_preread:
    case EventKind::tier_writeback:
      os << ", \"bytes\": " << e.arg << ", \"pages\": " << e.arg2;
      break;
    default:
      break;
  }
  os << "}";
}

}  // namespace

void write_chrome_trace(std::ostream& os, const std::vector<Event>& events,
                        const TraceNaming& naming) {
  os << "{\n\"displayTimeUnit\": \"ns\",\n\"traceEvents\": [\n";
  os << "{\"ph\": \"M\", \"pid\": 0, \"name\": \"process_name\", "
        "\"args\": {\"name\": \"" << naming.process_name << "\"}}";
  std::set<int> tasks;
  for (const Event& e : events) {
    if (e.task >= 0) tasks.insert(e.task);
  }
  for (int t : tasks) {
    os << ",\n{\"ph\": \"M\", \"pid\": 0, \"tid\": " << t
       << ", \"name\": \"thread_name\", \"args\": {\"name\": \"task " << t
       << "\"}}";
    // Keep Perfetto's track order aligned with task ids.
    os << ",\n{\"ph\": \"M\", \"pid\": 0, \"tid\": " << t
       << ", \"name\": \"thread_sort_index\", \"args\": {\"sort_index\": "
       << t << "}}";
  }
  for (const Event& e : events) {
    if (e.task < 0) continue;
    std::ostringstream args;
    emit_args(args, e);
    const bool instant = e.t1 <= e.t0;
    os << ",\n{\"ph\": \"" << (instant ? "i" : "X") << "\", \"pid\": 0, "
       << "\"tid\": " << e.task << ", \"ts\": " << us(e.t0);
    if (!instant) os << ", \"dur\": " << us(e.t1 - e.t0);
    if (instant) os << ", \"s\": \"t\"";
    os << ", \"cat\": \"" << category(e.kind) << "\", \"name\": \""
       << slice_name(naming, e) << "\", \"args\": " << args.str() << "}";
  }
  os << "\n]\n}\n";
}

std::string chrome_trace_json(const std::vector<Event>& events,
                              const TraceNaming& naming) {
  std::ostringstream os;
  write_chrome_trace(os, events, naming);
  return os.str();
}

}  // namespace hlsmpc::obs
