// TCP socket transport: cross-process delivery and dead-peer naming.
//
// These tests run the transport the way a deployment would: two real
// processes (fork) connected by a stream socket pair. The critical case
// is the paper-level fault story lifted to nodes: a peer process
// SIGKILLed mid-job must be DETECTED (EOF on its socket) and NAMED by the
// survivor's next receive — a NodeDeadError carrying the node id — well
// within the test timeout, never a hang.
#include <gtest/gtest.h>

#include <pthread.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "mpi/recover.hpp"
#include "mpi/tcp_transport.hpp"

namespace mpi = hlsmpc::mpi;

namespace {

class TestCtx final : public hlsmpc::ult::TaskContext {
 public:
  explicit TestCtx(int id) { set_task_id(id); }
  void yield() override { std::this_thread::yield(); }
  bool cooperative() const override { return false; }
};

void wait(hlsmpc::ult::TaskContext& ctx, mpi::Request req,
          mpi::Status* st = nullptr) {
  mpi::transport_wait(ctx, req, st);
}

mpi::TcpTransport::Options mesh2(int me, int peer_fd) {
  mpi::TcpTransport::Options o;
  o.me = me;
  o.nendpoints = 2;
  o.fds = {me == 0 ? -1 : peer_fd, me == 1 ? -1 : peer_fd};
  return o;
}

}  // namespace

TEST(TcpTransport, SelfSendAndProbeSingleProcess) {
  mpi::TcpTransport::Options o;
  o.me = 0;
  o.nendpoints = 1;
  o.fds = {-1};
  mpi::TcpTransport t(o);
  TestCtx c0(0);
  EXPECT_STREQ(t.name(), "tcp");
  const int v = 7;
  wait(c0, t.isend(c0, 0, 0, 0, &v, sizeof(v), 3, 0));
  mpi::Status st;
  ASSERT_TRUE(t.iprobe(0, mpi::kAnySource, mpi::kAnyTag, 0, &st));
  EXPECT_EQ(st.tag, 3);
  int got = 0;
  wait(c0, t.irecv(c0, 0, &got, sizeof(got), 0, 3, 0), &st);
  EXPECT_EQ(got, 7);
  EXPECT_EQ(st.bytes, sizeof(int));
}

TEST(TcpTransport, RoundTripAcrossProcesses) {
  int sv[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child = node 1. No gtest machinery here: plain logic, then _exit so
    // the parent's atexit handlers never run twice.
    ::close(sv[0]);
    int code = 0;
    {
      mpi::TcpTransport t(mesh2(1, sv[1]));
      TestCtx c(1);
      int got = 0;
      mpi::Status st;
      mpi::Request r = t.irecv(c, 1, &got, sizeof(got), 0, 11, 0);
      mpi::transport_wait(c, r, &st);
      if (got != 41 || st.source != 0 || st.tag != 11) code = 1;
      const int reply = got + 1;
      mpi::Request s = t.isend(c, 1, 0, 0, &reply, sizeof(reply), 12, 0);
      mpi::transport_wait(c, s);
    }
    _exit(code);
  }
  ::close(sv[1]);
  {
    mpi::TcpTransport t(mesh2(0, sv[0]));
    TestCtx c(0);
    const int v = 41;
    wait(c, t.isend(c, 0, 1, 1, &v, sizeof(v), 11, 0));
    int got = 0;
    mpi::Status st;
    wait(c, t.irecv(c, 0, &got, sizeof(got), 1, 12, 0), &st);
    EXPECT_EQ(got, 42);
    EXPECT_EQ(st.source, 1);
  }
  int wstatus = 0;
  ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
  EXPECT_TRUE(WIFEXITED(wstatus));
  EXPECT_EQ(WEXITSTATUS(wstatus), 0);
}

TEST(TcpTransport, SigkilledPeerIsDetectedAndNamed) {
  int sv[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child = node 1: hold the socket open and do nothing, like a rank
    // that wedged. The parent SIGKILLs us; we must never exit on our own.
    ::close(sv[0]);
    for (;;) pause();
  }
  ::close(sv[1]);
  mpi::TcpTransport t(mesh2(0, sv[0]));
  TestCtx c(0);
  // The receive is posted while the peer is still alive — detection must
  // come from the EOF, not from a failed send.
  int got = 0;
  mpi::Request r = t.irecv(c, 0, &got, sizeof(got), 1, 0, 0);
  ASSERT_EQ(kill(pid, SIGKILL), 0);
  int wstatus = 0;
  ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
  try {
    mpi::transport_wait(c, r);
    FAIL() << "recv from a SIGKILLed peer must fail, not complete";
  } catch (const mpi::NodeDeadError& e) {
    EXPECT_EQ(e.node(), 1);
    EXPECT_NE(std::string(e.what()).find("node 1"), std::string::npos);
  }
  EXPECT_EQ(t.first_dead_node(), 1);
  EXPECT_TRUE(t.node_dead(1));
  // The poisoned transport refuses new traffic with the same name.
  const int v = 0;
  EXPECT_THROW(t.isend(c, 0, 1, 1, &v, sizeof(v), 0, 0),
               mpi::NodeDeadError);
}

// ---- EINTR under a signal storm ----

namespace {

std::atomic<int> g_usr1{0};
void count_usr1(int) { g_usr1.fetch_add(1, std::memory_order_relaxed); }

}  // namespace

TEST(TcpTransport, SurvivesSignalStormDuringLargeTransfer) {
  // Regression for the transport's short-write/EINTR discipline: a
  // multi-megabyte round trip while SIGUSR1 (installed WITHOUT SA_RESTART,
  // so every blocking syscall genuinely returns EINTR) hammers both the
  // sending thread and the process must deliver bit-identically — partial
  // write() and read() returns are resumed, never treated as failures.
  const std::size_t n = 4 * 1024 * 1024;
  int sv[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child = node 1: echo the payload back. The storm stays in the
    // parent; the child's default SIGUSR1 disposition is never exercised.
    ::close(sv[0]);
    int code = 0;
    {
      mpi::TcpTransport t(mesh2(1, sv[1]));
      TestCtx c(1);
      std::vector<std::uint8_t> buf(n);
      mpi::Request r = t.irecv(c, 1, buf.data(), n, 0, 21, 0);
      mpi::transport_wait(c, r);
      mpi::Request s = t.isend(c, 1, 0, 0, buf.data(), n, 22, 0);
      mpi::transport_wait(c, s);
    }
    _exit(code);
  }
  ::close(sv[1]);
  struct sigaction sa {};
  sa.sa_handler = count_usr1;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // deliberately NOT SA_RESTART
  struct sigaction old {};
  ASSERT_EQ(sigaction(SIGUSR1, &sa, &old), 0);
  g_usr1.store(0, std::memory_order_relaxed);
  const pthread_t io_thread = pthread_self();
  // Stopped and joined at the end of the transfer, or by the destructor
  // when a transport error unwinds past it: a joinable std::thread
  // destroyed by unwinding aborts the binary instead of failing the test.
  struct Storm {
    std::atomic<bool> done{false};
    std::thread thread;
    void stop() {
      if (!thread.joinable()) return;
      done.store(true, std::memory_order_relaxed);
      thread.join();
    }
    ~Storm() { stop(); }
  } storm;
  storm.thread = std::thread([&] {
    while (!storm.done.load(std::memory_order_relaxed)) {
      pthread_kill(io_thread, SIGUSR1);       // the thread in full_send
      kill(getpid(), SIGUSR1);                // any thread, incl. receiver
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  });
  {
    mpi::TcpTransport t(mesh2(0, sv[0]));
    TestCtx c(0);
    std::vector<std::uint8_t> in(n), out(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
      in[i] = static_cast<std::uint8_t>(i * 131 + 17);
    }
    wait(c, t.isend(c, 0, 1, 1, in.data(), n, 21, 0));
    wait(c, t.irecv(c, 0, out.data(), n, 1, 22, 0));
    EXPECT_EQ(in, out);
    storm.stop();
  }
  ASSERT_EQ(sigaction(SIGUSR1, &old, nullptr), 0);
  EXPECT_GT(g_usr1.load(std::memory_order_relaxed), 0);
  int wstatus = 0;
  ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
  EXPECT_TRUE(WIFEXITED(wstatus));
  EXPECT_EQ(WEXITSTATUS(wstatus), 0);
}

// ---- shrink agreement + survivor collective over the real socket mesh ----

namespace recover = mpi::recover;

namespace {

// Non-commutative 2x2 matrices over Z_1009 (test_coll.cpp's algebra): the
// survivor allreduce must produce the exact ascending-node fold.
constexpr std::int64_t kMod = 1009;

struct Mat {
  std::int32_t a, b, c, d;
  friend bool operator==(const Mat&, const Mat&) = default;
};

Mat mul(const Mat& x, const Mat& y) {
  const auto m = [](std::int64_t v) {
    return static_cast<std::int32_t>(((v % kMod) + kMod) % kMod);
  };
  return Mat{
      m(static_cast<std::int64_t>(x.a) * y.a +
        static_cast<std::int64_t>(x.b) * y.c),
      m(static_cast<std::int64_t>(x.a) * y.b +
        static_cast<std::int64_t>(x.b) * y.d),
      m(static_cast<std::int64_t>(x.c) * y.a +
        static_cast<std::int64_t>(x.d) * y.c),
      m(static_cast<std::int64_t>(x.c) * y.b +
        static_cast<std::int64_t>(x.d) * y.d),
  };
}

mpi::ReduceFn mat_fn() {
  return [](void* inout, const void* in, std::size_t count) {
    Mat* x = static_cast<Mat*>(inout);
    const Mat* y = static_cast<const Mat*>(in);
    for (std::size_t i = 0; i < count; ++i) x[i] = mul(x[i], y[i]);
  };
}

Mat contrib(int node, std::size_t i) {
  return Mat{static_cast<std::int32_t>(1 + (2 * node + i) % 5),
             static_cast<std::int32_t>((node + 2 * i + 1) % 7),
             static_cast<std::int32_t>((node * node + 3 * i + 2) % 6),
             static_cast<std::int32_t>(1 + (3 * node + 2 * i) % 4)};
}

std::vector<Mat> make_contrib(int node, std::size_t count) {
  std::vector<Mat> v(count);
  for (std::size_t i = 0; i < count; ++i) v[i] = contrib(node, i);
  return v;
}

std::vector<Mat> reference_over(const std::vector<int>& nodes,
                                std::size_t count) {
  std::vector<Mat> ref = make_contrib(nodes.front(), count);
  for (std::size_t k = 1; k < nodes.size(); ++k) {
    for (std::size_t i = 0; i < count; ++i) {
      ref[i] = mul(ref[i], contrib(nodes[k], i));
    }
  }
  return ref;
}

/// Pre-connected full mesh over socketpairs, built BEFORE forking so every
/// process shares the pairs. ends[i][j] = the fd node i uses towards j.
struct FullMesh {
  static constexpr int kMax = 4;
  int n;
  int ends[kMax][kMax];

  explicit FullMesh(int n_) : n(n_) {
    for (auto& row : ends) {
      for (int& f : row) f = -1;
    }
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        int sv[2];
        if (socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) abort();
        ends[i][j] = sv[0];
        ends[j][i] = sv[1];
      }
    }
  }

  /// Keep node `me`'s row for its transport; close this process's copies
  /// of every other end (EOF needs all copies of a peer end closed).
  std::vector<int> adopt(int me) {
    std::vector<int> mine(static_cast<std::size_t>(n), -1);
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        if (ends[i][j] < 0) continue;
        if (i == me) {
          mine[static_cast<std::size_t>(j)] = ends[i][j];
        } else {
          ::close(ends[i][j]);
        }
        ends[i][j] = -1;
      }
    }
    return mine;
  }

  /// A node that dies before the episode: drop every copy.
  void close_all() {
    for (auto& row : ends) {
      for (int& f : row) {
        if (f >= 0) ::close(f);
        f = -1;
      }
    }
  }
};

/// One survivor's whole episode: shrink agreement over the mesh, then a
/// non-commutative allreduce on the shrunken membership. Returns 0 on
/// success, a small positive code naming the failed check (children can't
/// use gtest).
int run_mesh_survivor(FullMesh& mesh, int me, int dead_node) {
  constexpr std::size_t kCount = 5;
  std::vector<int> members;
  std::vector<int> expect_live;
  for (int i = 0; i < mesh.n; ++i) {
    members.push_back(i);
    if (i != dead_node) expect_live.push_back(i);
  }
  mpi::TcpTransport::Options o;
  o.me = me;
  o.nendpoints = mesh.n;
  o.fds = mesh.adopt(me);
  mpi::TcpTransport t(o);
  TestCtx c(me);
  // Make the death POSITIVELY known before the episode, the way the
  // ClusterComm driver guarantees via its verdict gates: a normal-context
  // receive from the dead node must be failed by its EOF and name it.
  // (Entering the agreement with skewed suspicion would let one survivor
  // burn an attempt that another doesn't, and the per-round deadlines
  // would then falsely exclude the slower one.)
  int probe = 0;
  try {
    mpi::Request r = t.irecv(c, me, &probe, sizeof(probe), dead_node, 99, 0);
    mpi::transport_wait(c, r);
    return 6;
  } catch (const mpi::NodeDeadError&) {
  }
  if (!t.node_dead(dead_node)) return 7;
  recover::TcpRecoveryChannel ch(t);
  recover::ShrinkConfig cfg;
  cfg.epoch = 1;
  recover::ShrinkDecision d;
  try {
    d = recover::shrink_agree(c, ch, me, members, cfg);
  } catch (const mpi::MpiError&) {
    return 1;
  }
  if (d.dead_mask != (std::uint64_t{1} << dead_node)) return 2;
  if (d.live != expect_live) return 3;
  t.heal(d.dead_mask);
  std::vector<Mat> buf = make_contrib(me, kCount);
  try {
    recover::survivor_allreduce(c, ch, me, d.live, buf.data(), kCount,
                                sizeof(Mat), mat_fn(), /*tag=*/64);
  } catch (const mpi::MpiError&) {
    return 4;
  }
  if (buf != reference_over(expect_live, kCount)) return 5;
  return 0;
}

}  // namespace

TEST(TcpRecover, MeshShrinkAgreementExcludesDeadNode) {
  // Four real processes on a full socket mesh; node 3 dies before the
  // episode. Survivors 0..2 must agree on exactly {dead=3}, and the
  // non-commutative allreduce on the shrunken membership must produce the
  // ascending fold over nodes 0,1,2 — on every survivor.
  FullMesh mesh(4);
  pid_t kids[3];
  for (int node = 1; node <= 3; ++node) {
    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      if (node == 3) {
        mesh.close_all();
        _exit(0);
      }
      _exit(run_mesh_survivor(mesh, node, /*dead_node=*/3));
    }
    kids[node - 1] = pid;
  }
  EXPECT_EQ(run_mesh_survivor(mesh, 0, /*dead_node=*/3), 0);
  for (int i = 0; i < 3; ++i) {
    int wstatus = 0;
    ASSERT_EQ(waitpid(kids[i], &wstatus, 0), kids[i]);
    EXPECT_TRUE(WIFEXITED(wstatus));
    EXPECT_EQ(WEXITSTATUS(wstatus), 0) << "child node " << i + 1;
  }
}

TEST(TcpRecover, CoordinatorFailoverElectsNextSurvivor) {
  // The dead node is 0 — the member every attempt would elect coordinator
  // if it were alive. The agreement must skip it, elect node 1, and still
  // converge on {dead=0} with a working survivor pair.
  FullMesh mesh(3);
  pid_t kids[2];
  for (int node = 0; node < 3; ++node) {
    if (node == 1) continue;  // the parent plays node 1
    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      if (node == 0) {
        mesh.close_all();
        _exit(0);
      }
      _exit(run_mesh_survivor(mesh, node, /*dead_node=*/0));
    }
    kids[node == 0 ? 0 : 1] = pid;
  }
  EXPECT_EQ(run_mesh_survivor(mesh, 1, /*dead_node=*/0), 0);
  for (int i = 0; i < 2; ++i) {
    int wstatus = 0;
    ASSERT_EQ(waitpid(kids[i], &wstatus, 0), kids[i]);
    EXPECT_TRUE(WIFEXITED(wstatus));
    EXPECT_EQ(WEXITSTATUS(wstatus), 0) << "child " << i;
  }
}
