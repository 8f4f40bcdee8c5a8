// Machine topology model.
//
// HLS scopes (node / numa / cache level(L) / core) are defined relative to
// the memory hierarchy of the executing node (paper §II.A, figure 1). This
// module describes that hierarchy: a node contains sockets, each socket one
// or more NUMA domains, each core a stack of caches, and each physical core
// one or more hardware threads (SMT). MPI tasks are pinned to hardware
// threads ("cpus" below), exactly as MPC pins tasks to cores by default.
//
// Cache instances at a given level are identified by an index; consecutive
// cpus share an instance according to the level's sharing degree. The same
// indexing is reused by the cache simulator, the HLS storage manager and
// the hierarchical barrier, so all three agree on who shares what.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

namespace hlsmpc::topo {

/// Description of one cache level (uniform across the machine).
struct CacheLevelDesc {
  int level = 1;                 ///< 1 = closest to the core.
  std::size_t size_bytes = 0;    ///< Capacity of one instance.
  std::size_t line_bytes = 64;   ///< Cache-line size.
  int associativity = 8;         ///< Ways per set.
  int cpus_per_instance = 1;     ///< Sharing degree in hardware threads.
  int latency_cycles = 4;        ///< Hit latency.
};

/// Plain-old description of a node; validated by Machine's constructor.
struct MachineDesc {
  std::string name = "generic";
  int sockets = 1;
  int numa_per_socket = 1;
  int cores_per_numa = 1;
  int threads_per_core = 1;  ///< SMT width.
  std::vector<CacheLevelDesc> caches;  ///< Sorted by level, ascending.
  int memory_latency_cycles = 200;
  /// Peak lines/cycle one memory controller can sustain; used by the cache
  /// simulator's contention model.
  double memory_lines_per_cycle = 0.25;
};

/// Immutable, validated machine topology.
class Machine {
 public:
  explicit Machine(MachineDesc desc);

  /// 4-socket-capable Nehalem-EX node used in the paper's §V.A experiments:
  /// 8 cores per socket, 18 MB shared L3, 256 KB private L2, 32 KB L1.
  /// `capacity_divisor` scales all cache capacities down (working sets in
  /// the benchmarks are scaled by the same factor, preserving ratios).
  static Machine nehalem_ex(int sockets, int capacity_divisor = 1);

  /// 8-core node of the paper's §V.B cluster: 2× Intel Xeon E5462
  /// (Core2 quad-core, 2×6 MB L2 shared per pair of cores, no L3).
  static Machine core2_cluster_node(int capacity_divisor = 1);

  /// Minimal machine for unit tests.
  static Machine generic(int sockets, int cores_per_socket,
                         std::size_t llc_bytes = 1 << 20,
                         int threads_per_core = 1);

  const MachineDesc& desc() const { return desc_; }
  const std::string& name() const { return desc_.name; }

  int num_sockets() const { return desc_.sockets; }
  int num_numa() const { return desc_.sockets * desc_.numa_per_socket; }
  int num_cores() const { return num_numa() * desc_.cores_per_numa; }
  /// Total hardware threads; MPI tasks are pinned to these.
  int num_cpus() const { return num_cores() * desc_.threads_per_core; }
  int threads_per_core() const { return desc_.threads_per_core; }

  int core_of_cpu(int cpu) const;
  int numa_of_cpu(int cpu) const;
  int socket_of_cpu(int cpu) const;

  int num_cache_levels() const { return static_cast<int>(desc_.caches.size()); }
  /// Last level of cache ("llc" in the paper's directive syntax).
  int llc_level() const;
  const CacheLevelDesc& cache_level(int level) const;
  int num_cache_instances(int level) const;
  int cache_instance_of_cpu(int level, int cpu) const;
  /// All cpus sharing cache instance `inst` at `level`, in cpu order.
  std::vector<int> cpus_of_cache_instance(int level, int inst) const;

  std::vector<int> cpus_of_core(int core) const;

 private:
  MachineDesc desc_;
};

}  // namespace hlsmpc::topo
