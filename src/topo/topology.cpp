#include "topo/topology.hpp"

#include <algorithm>

namespace hlsmpc::topo {

namespace {

void validate(const MachineDesc& d) {
  if (d.sockets < 1 || d.numa_per_socket < 1 || d.cores_per_numa < 1 ||
      d.threads_per_core < 1) {
    throw std::invalid_argument("Machine: all structural counts must be >= 1");
  }
  const int cpus =
      d.sockets * d.numa_per_socket * d.cores_per_numa * d.threads_per_core;
  int prev_level = 0;
  int prev_share = 0;
  for (const CacheLevelDesc& c : d.caches) {
    if (c.level != prev_level + 1) {
      throw std::invalid_argument("Machine: cache levels must be 1..N contiguous");
    }
    if (c.size_bytes == 0 || c.line_bytes == 0 || c.associativity < 1) {
      throw std::invalid_argument("Machine: degenerate cache level");
    }
    if ((c.line_bytes & (c.line_bytes - 1)) != 0) {
      throw std::invalid_argument("Machine: cache line size must be a power of two");
    }
    if (c.cpus_per_instance < 1 || cpus % c.cpus_per_instance != 0) {
      throw std::invalid_argument(
          "Machine: cache sharing degree must divide the cpu count");
    }
    if (c.cpus_per_instance < prev_share) {
      throw std::invalid_argument(
          "Machine: outer cache levels must be shared at least as widely");
    }
    prev_level = c.level;
    prev_share = c.cpus_per_instance;
  }
  if (d.caches.empty()) {
    throw std::invalid_argument("Machine: at least one cache level required");
  }
}

std::size_t scaled(std::size_t bytes, int divisor) {
  return std::max<std::size_t>(bytes / static_cast<std::size_t>(divisor), 4096);
}

}  // namespace

Machine::Machine(MachineDesc desc) : desc_(std::move(desc)) { validate(desc_); }

Machine Machine::nehalem_ex(int sockets, int capacity_divisor) {
  MachineDesc d;
  d.name = "nehalem-ex-" + std::to_string(sockets) + "s";
  d.sockets = sockets;
  d.numa_per_socket = 1;  // one NUMA node per socket on Nehalem-EX
  d.cores_per_numa = 8;
  d.threads_per_core = 1;  // paper runs one MPI task per core, SMT off
  d.caches = {
      {.level = 1,
       .size_bytes = scaled(32u << 10, capacity_divisor),
       .line_bytes = 64,
       .associativity = 8,
       .cpus_per_instance = 1,
       .latency_cycles = 4},
      {.level = 2,
       .size_bytes = scaled(256u << 10, capacity_divisor),
       .line_bytes = 64,
       .associativity = 8,
       .cpus_per_instance = 1,
       .latency_cycles = 10},
      {.level = 3,
       .size_bytes = scaled(18u << 20, capacity_divisor),
       .line_bytes = 64,
       .associativity = 16,
       .cpus_per_instance = 8,  // shared by the whole socket
       .latency_cycles = 40},
  };
  d.memory_latency_cycles = 200;
  // One line every 50 cycles: 8 cores of serialized misses (one per ~250
  // cycles each) oversubscribe the channel ~1.6x, which is what caps the
  // paper's no-HLS efficiency around 40 % on the random-table workloads.
  d.memory_lines_per_cycle = 0.02;
  return Machine(d);
}

Machine Machine::core2_cluster_node(int capacity_divisor) {
  // Intel Xeon E5462 (Harpertown/Core2): 4 cores per socket, two 6 MB L2
  // caches per socket, each shared by a pair of cores; no L3.
  MachineDesc d;
  d.name = "core2-2s4c";
  d.sockets = 2;
  d.numa_per_socket = 1;
  d.cores_per_numa = 4;
  d.threads_per_core = 1;
  d.caches = {
      {.level = 1,
       .size_bytes = scaled(32u << 10, capacity_divisor),
       .line_bytes = 64,
       .associativity = 8,
       .cpus_per_instance = 1,
       .latency_cycles = 3},
      {.level = 2,
       .size_bytes = scaled(6u << 20, capacity_divisor),
       .line_bytes = 64,
       .associativity = 24,
       .cpus_per_instance = 2,  // pair-shared
       .latency_cycles = 15},
  };
  d.memory_latency_cycles = 220;
  d.memory_lines_per_cycle = 0.03;
  return Machine(d);
}

Machine Machine::generic(int sockets, int cores_per_socket,
                         std::size_t llc_bytes, int threads_per_core) {
  MachineDesc d;
  d.name = "generic";
  d.sockets = sockets;
  d.numa_per_socket = 1;
  d.cores_per_numa = cores_per_socket;
  d.threads_per_core = threads_per_core;
  const int cpus_per_socket = cores_per_socket * threads_per_core;
  d.caches = {
      {.level = 1,
       .size_bytes = 32u << 10,
       .line_bytes = 64,
       .associativity = 8,
       .cpus_per_instance = threads_per_core,
       .latency_cycles = 4},
      {.level = 2,
       .size_bytes = llc_bytes,
       .line_bytes = 64,
       .associativity = 16,
       .cpus_per_instance = cpus_per_socket,
       .latency_cycles = 30},
  };
  return Machine(d);
}

int Machine::core_of_cpu(int cpu) const {
  if (cpu < 0 || cpu >= num_cpus()) {
    throw std::out_of_range("core_of_cpu: bad cpu index");
  }
  return cpu / desc_.threads_per_core;
}

int Machine::numa_of_cpu(int cpu) const {
  return core_of_cpu(cpu) / desc_.cores_per_numa;
}

int Machine::socket_of_cpu(int cpu) const {
  return numa_of_cpu(cpu) / desc_.numa_per_socket;
}

int Machine::llc_level() const {
  return static_cast<int>(desc_.caches.size());
}

const CacheLevelDesc& Machine::cache_level(int level) const {
  if (level < 1 || level > num_cache_levels()) {
    throw std::out_of_range("cache_level: no such level");
  }
  return desc_.caches[static_cast<std::size_t>(level - 1)];
}

int Machine::num_cache_instances(int level) const {
  return num_cpus() / cache_level(level).cpus_per_instance;
}

int Machine::cache_instance_of_cpu(int level, int cpu) const {
  if (cpu < 0 || cpu >= num_cpus()) {
    throw std::out_of_range("cache_instance_of_cpu: bad cpu index");
  }
  return cpu / cache_level(level).cpus_per_instance;
}

std::vector<int> Machine::cpus_of_cache_instance(int level, int inst) const {
  const int share = cache_level(level).cpus_per_instance;
  if (inst < 0 || inst >= num_cache_instances(level)) {
    throw std::out_of_range("cpus_of_cache_instance: bad instance");
  }
  std::vector<int> cpus(static_cast<std::size_t>(share));
  for (int i = 0; i < share; ++i) cpus[static_cast<std::size_t>(i)] = inst * share + i;
  return cpus;
}

std::vector<int> Machine::cpus_of_core(int core) const {
  if (core < 0 || core >= num_cores()) {
    throw std::out_of_range("cpus_of_core: bad core index");
  }
  std::vector<int> cpus(static_cast<std::size_t>(desc_.threads_per_core));
  for (int i = 0; i < desc_.threads_per_core; ++i) {
    cpus[static_cast<std::size_t>(i)] = core * desc_.threads_per_core + i;
  }
  return cpus;
}

}  // namespace hlsmpc::topo
