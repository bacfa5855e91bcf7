// saad_bench — the load generator and in-process harness of the e2ebench
// benchmark (see README.md in this directory; run.py drives it).
//
//   gen      record the seeded fleet with the repository's simulators, train
//            the model, and write every input a workload replays
//   send     feed pre-encoded SAADNET1 frames to a system under test over
//            TCP, open loop at a fixed rate or closed loop on its reported
//            progress, while timestamping every line it prints on stdout
//   layers   traced in-process replay of the same inputs through each
//            layer's public functions; writes spans and per-layer metrics
//
// Every time is CLOCK_MONOTONIC (std::chrono::steady_clock) nanoseconds.
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <pthread.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/crc32c.h"
#include "core/checkpoint.h"
#include "core/saad.h"
#include "core/telemetry.h"
#include "faults/fault_plane.h"
#include "net/wire.h"
#include "sim/engine.h"
#include "systems/cassandra/cassandra.h"
#include "workload/ycsb.h"

namespace {

using namespace saad;
using Bytes = std::vector<std::uint8_t>;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[noreturn]] void die(const char* what, const std::string& detail = {}) {
  std::fprintf(stderr, "saad_bench: %s%s%s\n", what, detail.empty() ? "" : ": ",
               detail.c_str());
  std::exit(1);
}

std::map<std::string, std::string> parse_flags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) die("unexpected argument", arg);
    const auto eq = arg.find('=');
    if (eq == std::string::npos) die("flags are --key=value", arg);
    flags[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
  }
  return flags;
}

std::string need(const std::map<std::string, std::string>& flags,
                 const char* key) {
  auto it = flags.find(key);
  if (it == flags.end() || it->second.empty())
    die("missing flag", std::string("--") + key);
  return it->second;
}

long long opt_int(const std::map<std::string, std::string>& flags,
                  const char* key, long long fallback) {
  auto it = flags.find(key);
  if (it == flags.end()) return fallback;
  try {
    std::size_t used = 0;
    const long long v = std::stoll(it->second, &used);
    if (used == it->second.size()) return v;
  } catch (const std::exception&) {
  }
  die("not an integer", it->first + "=" + it->second);
}

Bytes read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) die("cannot read", path);
  return Bytes((std::istreambuf_iterator<char>(in)),
               std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const Bytes& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) die("cannot write", path);
}

// ---------------------------------------------------------------------------
// gen

constexpr UsTime kWarmup = minutes(2);       // simulated warm-up, not captured
constexpr UsTime kRecordSpan = minutes(2);   // captured per recording
constexpr UsTime kWindow = sec(1);           // --window-sec=1 everywhere
constexpr std::size_t kBatch = 256;          // synopses per SAADNET1 frame
constexpr int kFleetTiles = 9;               // live fleet: recordings in time
constexpr int kFleetSplit = 8;               // virtual hosts per recorded host
constexpr std::size_t kPrefixWindows = 40;   // warm checkpoint stream prefix

// One cassandra cluster (4 nodes, 8 YCSB clients, as `saad_offline record`)
// captured into memory through the Monitor's training mode. `fault` injects
// error-wal on host 1 from a quarter of the capture onward.
std::vector<core::Synopsis> record(std::uint64_t seed, bool fault,
                                   Bytes& registry_bytes) {
  sim::Engine engine;
  core::LogRegistry registry;
  core::NullSink sink;
  faults::FaultPlane plane;
  core::Monitor monitor(&registry, &engine.clock());
  systems::MiniCassandra cassandra(&engine, &registry, &monitor, &sink,
                                   core::Level::kInfo, &plane,
                                   systems::CassandraOptions{}, seed);
  cassandra.preload(20000, 100);
  cassandra.start();
  const UsTime end = kWarmup + kRecordSpan;
  if (fault) {
    faults::FaultSpec spec;
    spec.host = 1;
    spec.intensity = 1.0;
    spec.activity = faults::Activity::kWalAppend;
    spec.mode = faults::FaultMode::kError;
    spec.from = kWarmup + kRecordSpan / 4;
    spec.until = end;
    plane.add(spec);
  }
  workload::YcsbOptions wl;
  wl.clients = 8;
  wl.think_mean = ms(10);
  wl.read_proportion = 0.2;
  wl.key_space = 20000;
  workload::YcsbDriver ycsb(&engine, &cassandra, wl, seed ^ 0x55AA);
  ycsb.start(end);
  engine.run_until(kWarmup);
  monitor.start_training();
  for (UsTime t = kWarmup; t < end;) {
    t = std::min(end, t + sec(10));
    engine.run_until(t);
    monitor.poll(engine.now());
  }
  monitor.poll(engine.now());
  registry.save(registry_bytes);
  return monitor.training_trace();
}

UsTime end_of(const core::Synopsis& s) { return s.start + s.duration; }

// Arrival order at a live analyzer: a synopsis is emitted when its task
// ends. Ties break on identity so the order is a pure function of content.
bool arrival_less(const core::Synopsis& a, const core::Synopsis& b) {
  if (end_of(a) != end_of(b)) return end_of(a) < end_of(b);
  if (a.host != b.host) return a.host < b.host;
  if (a.stage != b.stage) return a.stage < b.stage;
  return a.uid < b.uid;
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// Chunked stream written for `send`: the raw bytes plus one index line per
// chunk ("<bytes_end> <synopses_end>").
struct ChunkedStream {
  Bytes bytes;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> index;
  std::uint64_t synopses = 0;

  void end_chunk() { index.emplace_back(bytes.size(), synopses); }

  void save(const std::string& path) const {
    write_file(path, bytes);
    std::ofstream idx(path + ".idx", std::ios::trunc);
    for (const auto& [b, s] : index) idx << b << ' ' << s << '\n';
    if (!idx) die("cannot write", path + ".idx");
  }
};

// SAADNET1 session exactly as net::SynopsisClient writes it: prologue +
// hello, batch frames of kBatch synopses, goodbye with the session total.
ChunkedStream encode_session(std::span<const core::Synopsis> stream) {
  ChunkedStream out;
  out.bytes.assign(std::begin(net::kStreamMagic), std::end(net::kStreamMagic));
  Bytes payload;
  net::encode_hello(net::Hello{}, payload);
  net::encode_frame(net::FrameType::kHello, payload, out.bytes);
  out.end_chunk();
  for (std::size_t i = 0; i < stream.size(); i += kBatch) {
    const auto n = std::min(kBatch, stream.size() - i);
    payload.clear();
    net::encode_batch(stream.subspan(i, n), payload);
    net::encode_frame(net::FrameType::kBatch, payload, out.bytes);
    out.synopses += n;
    out.end_chunk();
  }
  payload.clear();
  net::encode_goodbye(out.synopses, payload);
  net::encode_frame(net::FrameType::kGoodbye, payload, out.bytes);
  out.end_chunk();
  return out;
}

void write_trace(const std::string& path, std::span<const core::Synopsis> stream) {
  core::TraceWriter writer(path);
  if (!writer.ok()) die("cannot write", path);
  for (const auto& s : stream) writer.append(s);
  if (!writer.finalize()) die("cannot write", path);
}

// Per window: the send index of the last synopsis whose start falls in it
// (the last contributing event of that window's verdicts). Indices are
// relative to `first`; windows whose last contributor precedes `first` are
// left out. Also records the windows the watermark can close before the
// stream ends: serve and detect --stats close window w once the newest
// synopsis end passes (w + 3) windows.
void write_windows(const std::string& path,
                   std::span<const core::Synopsis> stream, std::size_t first) {
  std::map<std::int64_t, std::size_t> last;
  UsTime watermark = 0;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    last[std::max<UsTime>(stream[i].start, 0) / kWindow] = i;
    watermark = std::max(watermark, end_of(stream[i]));
  }
  const std::int64_t closable = watermark / kWindow - 2;
  std::ofstream out(path, std::ios::trunc);
  out << "closable_below " << closable << '\n';
  for (const auto& [w, i] : last)
    if (i >= first) out << w << ' ' << i - first << '\n';
  if (!out) die("cannot write", path);
}

int cmd_gen(const std::map<std::string, std::string>& flags) {
  const auto seed = static_cast<std::uint64_t>(opt_int(flags, "seed", 1));
  const std::string dir = need(flags, "out");

  // Two recordings in parallel (generation is untimed): the fault-free
  // cluster trains the model, the error-wal cluster supplies FLOW verdicts.
  Bytes reg_clean, reg_fault;
  std::vector<core::Synopsis> clean, faulty;
  {
    std::thread t([&] { faulty = record(mix64(seed ^ 0xFA17), true, reg_fault); });
    clean = record(mix64(seed), false, reg_clean);
    t.join();
  }
  if (reg_clean != reg_fault) die("recordings disagree on the log registry");
  write_file(dir + "/registry.bin", reg_clean);
  const auto model = core::OutlierModel::train(clean);
  Bytes model_bytes;
  model.save(model_bytes);
  write_file(dir + "/model.bin", model_bytes);

  // burst: the faulty cluster (hosts 0-3) next to the fault-free one
  // (hosts 4-7); few hosts, many synopses per (host, stage).
  std::vector<core::Synopsis> burst = faulty;
  for (auto s : clean) {
    s.host += 4;
    burst.push_back(std::move(s));
  }
  std::sort(burst.begin(), burst.end(), arrival_less);
  encode_session(burst).save(dir + "/burst.net");
  write_trace(dir + "/burst.trc", burst);  // reference and trace_io replay
  write_windows(dir + "/burst.win", burst, 0);

  // fleet: kFleetTiles copies of the fault-free cluster laid end to end in
  // time, with the error-wal cluster next to it in two of them (fault
  // episodes); each recorded host is split by task uid into kFleetSplit
  // virtual hosts, and a seeded half of each tile's tasks is kept — many
  // hosts, few synopses per (host, stage) per 1 s window, 1000+ windows.
  struct Ref {
    UsTime end;
    std::uint32_t tile;
    std::uint32_t index;  // into burst
  };
  std::vector<Ref> refs;
  const UsTime tile_span = kRecordSpan;
  for (std::uint32_t tile = 0; tile < kFleetTiles; ++tile) {
    const bool fault_episode = tile == 2 || tile == 6;
    for (std::uint32_t i = 0; i < burst.size(); ++i) {
      if (burst[i].host < 4 && !fault_episode) continue;
      if (mix64(seed * 131 + tile * 1000003ull + burst[i].uid * 8 +
                burst[i].host) & 1)
        continue;
      refs.push_back({end_of(burst[i]) + tile * tile_span, tile, i});
    }
  }
  auto materialize = [&](const Ref& r) {
    core::Synopsis s = burst[r.index];
    s.start += static_cast<UsTime>(r.tile) * tile_span;
    s.host = static_cast<core::HostId>(s.host * kFleetSplit +
                                       s.uid % kFleetSplit);
    return s;
  };
  std::sort(refs.begin(), refs.end(), [&](const Ref& a, const Ref& b) {
    if (a.end != b.end) return a.end < b.end;
    return arrival_less(materialize(a), materialize(b));
  });
  std::vector<core::Synopsis> fleet;
  fleet.reserve(refs.size());
  for (const auto& r : refs) fleet.push_back(materialize(r));
  refs = {};
  std::size_t prefix = 0;
  const UsTime prefix_end =
      fleet.front().start / kWindow * kWindow + kPrefixWindows * kWindow;
  while (prefix < fleet.size() && end_of(fleet[prefix]) < prefix_end) ++prefix;
  const std::span<const core::Synopsis> all(fleet);
  encode_session(all.first(prefix)).save(dir + "/fleet_prefix.net");
  encode_session(all.subspan(prefix)).save(dir + "/fleet.net");
  write_trace(dir + "/fleet.trc", fleet);  // for the reference only
  write_windows(dir + "/fleet.win", fleet, prefix);

  // tracker script: recorded fault-free tasks as the ordered log calls a
  // worker replays. Recorded tasks hit 1-3 log points, so each task's calls
  // repeat until it makes 4-8; its signature (the set of points) is the
  // recorded one.
  {
    std::ofstream script(dir + "/tracker.script", std::ios::trunc);
    for (std::size_t i = 0; i < std::min<std::size_t>(clean.size(), 65536); ++i) {
      std::vector<core::LogPointId> calls;
      for (const auto& p : clean[i].log_points)
        for (std::uint32_t k = 0; k < p.count; ++k) calls.push_back(p.point);
      const std::size_t once = calls.size();
      while (once > 0 && calls.size() < 4)
        calls.insert(calls.end(), calls.begin(), calls.begin() + once);
      script << clean[i].stage;
      for (const auto p : calls) script << ' ' << p;
      script << '\n';
    }
    if (!script || clean.empty()) die("cannot write tracker script");
  }

  std::printf("{\"burst_synopses\":%zu,\"fleet_synopses\":%zu,"
              "\"fleet_prefix\":%zu,\"hosts\":%d}\n",
              burst.size(), fleet.size(), prefix, 8 * kFleetSplit);
  return 0;
}

// ---------------------------------------------------------------------------
// send

struct SendLog {
  std::vector<std::int64_t> sched, actual;
  std::int64_t t0 = 0, first = 0, done = 0;
  std::string error;
};

bool write_all(int fd, const std::uint8_t* p, std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

int open_target(const std::map<std::string, std::string>& flags,
                std::string& error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(opt_int(flags, "port", 0)));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (fd < 0 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    error = "cannot connect";
    if (fd >= 0) ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

// Synopses the system under test has reported back in `[stats] window`
// lines: the closed loop's acknowledgement.
struct Acks {
  std::mutex mu;
  std::condition_variable cv;
  std::uint64_t reported = 0;
  bool closed = false;  // stdout ended; nothing more will be reported
};

// Writes every chunk. With rate > 0 (open loop) chunk i is due when its last
// synopsis is (t0 + synopses_end / rate) and is sent then or, if the sender
// is behind, at once: a stall delays later chunks, never drops them. With
// inflight > 0 (closed loop) a chunk waits until at most `inflight`
// synopses sent are not yet reported in closed windows.
void send_chunks(const std::map<std::string, std::string>& flags,
                 const Bytes& bytes,
                 const std::vector<std::pair<std::uint64_t, std::uint64_t>>& idx,
                 double rate, std::uint64_t inflight, Acks& acks, SendLog& log) {
  const int fd = open_target(flags, log.error);
  if (fd < 0) return;
  log.t0 = now_ns() + 1'000'000;
  log.sched.resize(idx.size());
  log.actual.resize(idx.size());
  std::uint64_t begin = 0;
  for (std::size_t i = 0; i < idx.size(); ++i) {
    std::int64_t due = 0;
    if (rate > 0) {
      // Spin rather than sleep: on a virtual machine an idle CPU's wake-up
      // can be milliseconds late, which would show as generator lag.
      due = log.t0 + static_cast<std::int64_t>(
                         static_cast<double>(idx[i].second) / rate * 1e9);
      while (now_ns() < due) std::this_thread::yield();
    }
    if (inflight > 0) {
      std::unique_lock lock(acks.mu);
      acks.cv.wait(lock, [&] {
        return acks.closed || idx[i].second <= acks.reported + inflight;
      });
    }
    const std::int64_t t = now_ns();
    if (i == 0) log.first = t;
    log.sched[i] = due;
    log.actual[i] = t;
    if (!write_all(fd, bytes.data() + begin, idx[i].first - begin)) {
      log.error = "write failed at chunk " + std::to_string(i);
      break;
    }
    begin = idx[i].first;
  }
  log.done = now_ns();
  ::close(fd);
}

int cmd_send(const std::map<std::string, std::string>& flags) {
  const std::string chunks = need(flags, "chunks");
  const Bytes bytes = read_file(chunks);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> idx;
  {
    std::ifstream in(chunks + ".idx");
    std::uint64_t b = 0, s = 0;
    while (in >> b >> s) idx.emplace_back(b, s);
    if (idx.empty() || idx.back().first != bytes.size())
      die("chunk index does not match", chunks);
  }
  const double rate = static_cast<double>(opt_int(flags, "rate", 0));
  const int err_fd = static_cast<int>(opt_int(flags, "stderr-fd", -1));
  std::signal(SIGPIPE, SIG_IGN);

  const auto inflight = static_cast<std::uint64_t>(opt_int(flags, "inflight", 0));
  SendLog log;
  Acks acks;
  // A failed sender wakes the reader through this pipe: the system under
  // test may never end its output when its input stops early.
  int failed[2];
  if (::pipe(failed) != 0) die("pipe failed");
  std::thread sender([&] {
    send_chunks(flags, bytes, idx, rate, inflight, acks, log);
    if (!log.error.empty() && ::write(failed[1], "x", 1) != 1) std::abort();
  });

  // This thread reads what the system under test prints: stdout lines are
  // timestamped as they arrive (one blocking poll, no sleeps); stderr is
  // only kept, so the system never blocks on a full pipe.
  std::string out_text, err_text, partial;
  std::vector<std::pair<std::int64_t, std::string>> lines;
  std::int64_t eof = 0;
  pollfd fds[3] = {{0, POLLIN, 0}, {err_fd, POLLIN, 0}, {failed[0], POLLIN, 0}};
  char buf[65536];
  int open_fds = err_fd >= 0 ? 2 : 1;
  while (open_fds > 0) {
    if (::poll(fds, 3, -1) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[2].revents != 0) break;
    for (int k = 0; k < 2; ++k) {
      if (fds[k].fd < 0 || fds[k].revents == 0) continue;
      const ssize_t n = ::read(fds[k].fd, buf, sizeof buf);
      const std::int64_t t = now_ns();
      if (n <= 0) {
        if (k == 0) eof = t;
        fds[k].fd = -1;
        --open_fds;
        continue;
      }
      if (k == 1) {
        err_text.append(buf, static_cast<std::size_t>(n));
        continue;
      }
      out_text.append(buf, static_cast<std::size_t>(n));
      partial.append(buf, static_cast<std::size_t>(n));
      std::size_t pos;
      std::uint64_t reported = 0;
      while ((pos = partial.find('\n')) != std::string::npos) {
        std::string line = partial.substr(0, pos);
        partial.erase(0, pos + 1);
        unsigned long long window = 0, synopses = 0;
        if (std::sscanf(line.c_str(), "[stats] window %llu [%*[^)]): %llu",
                        &window, &synopses) == 2)
          reported += synopses;
        lines.emplace_back(t, std::move(line));
      }
      if (reported > 0) {
        std::lock_guard lock(acks.mu);
        acks.reported += reported;
        acks.cv.notify_one();
      }
    }
  }
  {
    std::lock_guard lock(acks.mu);
    acks.closed = true;
    acks.cv.notify_one();
  }
  sender.join();
  ::close(failed[0]);
  ::close(failed[1]);

  std::ofstream(need(flags, "stdout-copy"), std::ios::trunc) << out_text;
  if (err_fd >= 0)
    std::ofstream(need(flags, "stderr-copy"), std::ios::trunc) << err_text;
  std::ofstream out(need(flags, "out"), std::ios::trunc);
  out << "t0 " << log.t0 << "\nfirst " << log.first << "\ndone " << log.done
      << "\neof " << eof << '\n';
  if (!log.error.empty()) out << "error " << log.error << '\n';
  for (std::size_t i = 0; i < log.actual.size(); ++i)
    out << "c " << idx[i].second << ' ' << log.sched[i] << ' '
        << log.actual[i] << '\n';
  for (const auto& [t, text] : lines)
    if (text.rfind("[stats] window", 0) == 0) out << "w " << t << ' ' << text << '\n';
  if (!out) die("cannot write", need(flags, "out"));
  return log.error.empty() ? 0 : 1;
}

// ---------------------------------------------------------------------------
// tracker replay

struct ScriptTask {
  core::StageId stage;
  std::vector<core::LogPointId> hits;
};

std::vector<ScriptTask> load_script(const std::string& path) {
  std::ifstream in(path);
  std::vector<ScriptTask> tasks;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    ScriptTask t{};
    std::uint64_t v = 0;
    if (!(fields >> v)) continue;
    t.stage = static_cast<core::StageId>(v);
    while (fields >> v) t.hits.push_back(static_cast<core::LogPointId>(v));
    tasks.push_back(std::move(t));
  }
  if (tasks.empty()) die("empty tracker script", path);
  return tasks;
}

// Microseconds of steady time since `origin`: the trackers' clock.
class SteadyUsClock final : public Clock {
 public:
  explicit SteadyUsClock(std::int64_t origin_ns) : origin_(origin_ns) {}
  UsTime now() const override { return (now_ns() - origin_) / 1000; }

 private:
  std::int64_t origin_;
};

// Runs `count` script tasks from `first` the way an instrumented worker
// does: set_context starts a task (ending the previous one), each hit is a
// log call, end_context ends the last task.
void run_tasks(core::Logger& logger, core::TaskExecutionTracker& tracker,
               const std::vector<ScriptTask>& script, std::size_t first,
               std::size_t count) {
  for (std::size_t k = 0; k < count; ++k) {
    const ScriptTask& task = script[(first + k) % script.size()];
    tracker.set_context(task.stage);
    for (const core::LogPointId p : task.hits) logger.log(p);
  }
  tracker.end_context();
}

// Gives a replay thread its own CPU from the allowed set, so the contention
// between the two tracker workers is the same every run rather than
// depending on where the scheduler first places them.
std::vector<int> allowed_cpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) == 0)
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
  return cpus;
}

void pin_to(const std::vector<int>& cpus, std::size_t slot) {
  if (cpus.size() < 3) return;  // too few CPUs to separate the threads
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus[slot % cpus.size()], &set);
  ::pthread_setaffinity_np(::pthread_self(), sizeof set, &set);
}

// ---------------------------------------------------------------------------
// layers

// Spans recorded around the calls into each layer: name, start, end, parent
// span, batch id, and the operations the span covers. Kept in memory and
// written when the replay ends.
class SpanLog {
 public:
  struct Span {
    const char* name;
    std::int64_t start, end;
    std::int64_t parent;
    std::uint64_t batch, ops;
  };

  std::int64_t begin(const char* name, std::uint64_t batch, std::uint64_t ops,
                     std::int64_t parent = -1) {
    spans_.push_back({name, now_ns(), 0, parent, batch, ops});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }
  void end(std::int64_t id) { spans_[static_cast<std::size_t>(id)].end = now_ns(); }
  void merge(const SpanLog& other) {
    spans_.insert(spans_.end(), other.spans_.begin(), other.spans_.end());
  }
  const std::vector<Span>& spans() const { return spans_; }

  /// Median over spans named `name` of (self time / ops), in ns. Self time
  /// is the span's duration minus its child spans' durations.
  double median_ns_per_op(const std::string& name) const {
    std::vector<std::int64_t> child(spans_.size(), 0);
    for (const auto& s : spans_)
      if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    std::vector<double> v;
    for (std::size_t i = 0; i < spans_.size(); ++i)
      if (name == spans_[i].name && spans_[i].ops > 0)
        v.push_back(static_cast<double>(spans_[i].end - spans_[i].start - child[i]) /
                    static_cast<double>(spans_[i].ops));
    if (v.empty()) return 0.0;
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2), v.end());
    return v[v.size() / 2];
  }

  void write(const std::string& path) const {
    std::ofstream out(path, std::ios::trunc);
    for (const auto& s : spans_)
      out << "{\"name\":\"" << s.name << "\",\"start\":" << s.start
          << ",\"end\":" << s.end << ",\"parent\":" << s.parent
          << ",\"batch\":" << s.batch << ",\"ops\":" << s.ops << "}\n";
    if (!out) die("cannot write", path);
  }

 private:
  std::vector<Span> spans_;
};

// Replay results land here, observable, so the compiler cannot drop the work.
volatile std::uint64_t g_kept = 0;
void keep(std::uint64_t v) { g_kept = v; }

double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

constexpr std::size_t kLayerBatch = 1024;
constexpr std::size_t kReplaySynopses = 256 * kLayerBatch;

// The analyzer path the detect/serve consumer runs per synopsis, replayed in
// batches with one span per layer call sequence.
void replay_analyzer(const core::OutlierModel& model,
                     std::span<const core::Synopsis> stream, SpanLog& spans) {
  core::DetectorConfig config;
  config.window = kWindow;
  core::AnomalyDetector detector(&model, config);
  std::uint64_t sink = 0;
  for (std::size_t b = 0; b * kLayerBatch < stream.size(); ++b) {
    const auto batch = stream.subspan(
        b * kLayerBatch, std::min(kLayerBatch, stream.size() - b * kLayerBatch));
    const auto parent = spans.begin("replay.analyzer", b, batch.size());
    auto id = spans.begin("model.classify", b, batch.size(), parent);
    for (const auto& s : batch)
      sink += model.classify(core::make_feature(s)).flow_outlier;
    spans.end(id);
    id = spans.begin("detector.ingest", b, batch.size(), parent);
    for (const auto& s : batch) detector.ingest(s);
    spans.end(id);
    spans.end(parent);
  }
  detector.finish();
  keep(sink);
}

// One worker's tracker replay: tasks in spans of kLayerBatch.
void replay_tasks(core::Logger& logger, core::TaskExecutionTracker& tracker,
                  const std::vector<ScriptTask>& script, std::size_t first,
                  std::size_t batches, const char* name, SpanLog& spans) {
  for (std::size_t b = 0; b < batches; ++b) {
    const auto id = spans.begin(name, b, kLayerBatch);
    run_tasks(logger, tracker, script, first + b * kLayerBatch, kLayerBatch);
    spans.end(id);
  }
}

int cmd_layers(const std::map<std::string, std::string>& flags) {
  const std::string dir = need(flags, "dir");
  const std::string run = need(flags, "run-dir");
  const auto model = core::OutlierModel::load(read_file(dir + "/model.bin"));
  const Bytes registry_bytes = read_file(dir + "/registry.bin");
  core::LogRegistry registry;
  if (!model || !registry.load(registry_bytes)) die("cannot load model/registry", dir);
  const auto script = load_script(dir + "/tracker.script");
  const std::vector<int> cpus = allowed_cpus();
  SpanLog spans;
  std::map<std::string, double> m;

  // core/trace_io: the burst stream as offline detect reads it.
  std::vector<core::Synopsis> stream;
  {
    core::TraceReader reader(dir + "/burst.trc");
    if (!reader.ok()) die("cannot read", dir + "/burst.trc");
    core::Synopsis s;
    for (std::uint64_t b = 0;; ++b) {
      const auto id = spans.begin("trace_io.next", b, kLayerBatch);
      std::size_t n = 0;
      while (n < kLayerBatch && reader.next(s)) {
        stream.push_back(s);
        ++n;
      }
      spans.end(id);
      if (n < kLayerBatch) break;
    }
  }
  m["trace_io.next_ns"] = spans.median_ns_per_op("trace_io.next");
  const std::span<const core::Synopsis> replay =
      std::span<const core::Synopsis>(stream).first(std::min(stream.size(), kReplaySynopses));

  // core/synopsis, net/wire, common/crc32c, core/channel: per batch.
  core::SynopsisChannel channel;
  {
    Bytes buf, frames, payload;
    std::vector<core::Synopsis> decoded, drained;
    std::uint64_t crc = 0;
    for (std::size_t b = 0; b * kLayerBatch < replay.size(); ++b) {
      const auto batch = replay.subspan(
          b * kLayerBatch, std::min(kLayerBatch, replay.size() - b * kLayerBatch));
      const auto parent = spans.begin("replay.batch", b, batch.size());
      buf.clear();
      auto id = spans.begin("synopsis.encode", b, batch.size(), parent);
      for (const auto& s : batch) core::encode_synopsis(s, buf);
      spans.end(id);
      decoded.assign(batch.size(), core::Synopsis{});
      id = spans.begin("synopsis.decode", b, batch.size(), parent);
      std::span<const std::uint8_t> in(buf);
      for (auto& s : decoded)
        if (!core::decode_synopsis(in, s)) die("synopsis decode failed");
      spans.end(id);
      frames.clear();
      id = spans.begin("wire.encode_batch", b, batch.size(), parent);
      for (std::size_t i = 0; i < batch.size(); i += kBatch) {
        payload.clear();
        net::encode_batch(batch.subspan(i, std::min(kBatch, batch.size() - i)), payload);
        net::encode_frame(net::FrameType::kBatch, payload, frames);
      }
      spans.end(id);
      const auto kib = std::max<std::uint64_t>(1, frames.size() / 1024);
      id = spans.begin("crc32c", b, kib, parent);
      crc += saad::crc32c(std::span<const std::uint8_t>(frames.data(), kib * 1024));
      spans.end(id);
      id = spans.begin("wire.decode", b, batch.size(), parent);
      net::FrameDecoder decoder(false);
      if (!decoder.feed(frames)) die("frame decode failed");
      net::Frame frame;
      decoded.clear();
      while (decoder.next(frame))
        if (!net::decode_batch(frame.payload, decoded)) die("batch decode failed");
      spans.end(id);
      if (decoded.size() != batch.size()) die("wire round trip lost synopses");
      id = spans.begin("channel.push", b, batch.size(), parent);
      for (const auto& s : decoded) channel.push(s);
      spans.end(id);
      drained.clear();
      id = spans.begin("channel.drain", b, batch.size(), parent);
      channel.drain(drained);
      spans.end(id);
      id = spans.begin("channel.producer_push", b, batch.size(), parent);
      {
        auto producer = channel.producer();
        for (const auto& s : drained) producer.push(s);
        producer.flush();
      }
      spans.end(id);
      decoded.clear();
      channel.drain(decoded);
      if (decoded != drained || drained.size() != batch.size())
        die("channel round trip changed the batch");
      spans.end(parent);
    }
    keep(crc);
  }
  for (const char* name : {"synopsis.encode", "synopsis.decode", "wire.encode_batch",
                           "wire.decode", "channel.push", "channel.drain",
                           "channel.producer_push"})
    m[std::string(name) + "_ns"] = spans.median_ns_per_op(name);
  m["crc32c.ns_per_kib"] = spans.median_ns_per_op("crc32c");

  // core/model and core/detector on the same batches. The ingest span's
  // self time excludes the classify it performs (measured on the batch).
  replay_analyzer(*model, replay, spans);
  {
    std::map<std::uint64_t, double> classify;
    for (const auto& s : spans.spans())
      if (std::string_view(s.name) == "model.classify")
        classify[s.batch] = static_cast<double>(s.end - s.start);
    std::vector<double> self;
    for (const auto& s : spans.spans())
      if (std::string_view(s.name) == "detector.ingest")
        self.push_back((static_cast<double>(s.end - s.start) - classify[s.batch]) /
                       static_cast<double>(s.ops));
    m["model.classify_ns"] = spans.median_ns_per_op("model.classify");
    m["detector.ingest_ns"] = median_of(self);
  }

  // core/detector window close and core/checkpoint on the first
  // kFleetReplay synopses of the live fleet: the stream is ingested with
  // serve's watermark (close 2 windows behind the
  // newest synopsis end); at a mid-stream barrier the state is saved,
  // encoded, written and restored the way serve checkpoints it.
  {
    core::DetectorConfig config;
    config.window = kWindow;
    core::AnomalyDetector detector(&*model, config);
    constexpr std::size_t kFleetReplay = 600000;
    std::vector<core::Synopsis> fleet;
    {
      net::FrameDecoder decoder;
      net::Frame frame;
      std::vector<core::Synopsis> batch;
      if (!decoder.feed(read_file(dir + "/fleet.net"))) die("bad frames", dir + "/fleet.net");
      while (fleet.size() < kFleetReplay && decoder.next(frame)) {
        if (frame.type != net::FrameType::kBatch) continue;
        // decode_batch reserves exactly what it appends; decoding into a
        // fresh batch keeps the growing vector's appends amortized.
        batch.clear();
        if (!net::decode_batch(frame.payload, batch)) die("bad frames", dir + "/fleet.net");
        fleet.insert(fleet.end(), std::make_move_iterator(batch.begin()),
                     std::make_move_iterator(batch.end()));
      }
    }
    UsTime watermark = 0;
    std::int64_t next_close = -1;
    std::vector<core::Anomaly> anomalies;
    std::map<std::int64_t, std::set<std::pair<core::HostId, core::StageId>>> keys;
    std::vector<double> keys_per_window;
    const std::size_t n = fleet.size();
    for (const core::Synopsis& s : fleet) {
      watermark = std::max(watermark, end_of(s));
      keys[std::max<UsTime>(s.start, 0) / kWindow].insert({s.host, s.stage});
      detector.ingest(s);
      const UsTime safe = watermark > 2 * kWindow ? watermark - 2 * kWindow : 0;
      const std::int64_t closable = safe / kWindow;
      if (next_close < 0) next_close = closable;
      if (closable > next_close) {
        const auto id = spans.begin("detector.close", static_cast<std::uint64_t>(closable),
                                    static_cast<std::uint64_t>(closable - next_close));
        auto closed = detector.advance_to(safe);
        spans.end(id);
        anomalies.insert(anomalies.end(), closed.begin(), closed.end());
        for (; next_close < closable; ++next_close) {
          keys_per_window.push_back(static_cast<double>(keys[next_close].size()));
          keys.erase(next_close);
        }
      }
    }
    m["detector.close_ms"] = spans.median_ns_per_op("detector.close") / 1e6;
    m["detector.keys_per_window"] = median_of(keys_per_window);

    std::filesystem::remove_all(run + "/layers_ckpt");
    core::CheckpointDir ckdir(run + "/layers_ckpt");
    if (!ckdir.ensure()) die("cannot create", run + "/layers_ckpt");
    std::vector<double> save, encode, write, restore;
    std::uint64_t bytes = 0;
    for (std::uint64_t k = 0; k < 20; ++k) {
      core::Checkpoint c;
      c.sequence = k + 1;
      c.window = kWindow;
      c.threads = 1;
      c.ingested = n;
      c.model = read_file(dir + "/model.bin");
      c.registry = registry_bytes;
      c.anomalies = anomalies;
      auto id = spans.begin("checkpoint.save_state", k, 1);
      detector.save_state(c.analyzer);
      spans.end(id);
      Bytes encoded;
      id = spans.begin("checkpoint.encode", k, 1);
      core::encode_checkpoint(c, encoded);
      spans.end(id);
      bytes = encoded.size();
      const std::string path = ckdir.path_for(c.sequence);
      id = spans.begin("checkpoint.write", k, 1);
      if (!ckdir.write(c)) die("cannot write", path);
      spans.end(id);
      id = spans.begin("checkpoint.restore", k, 1);
      auto back = core::read_checkpoint_file(path);
      core::AnomalyDetector restored(&*model, config);
      if (!back || !restored.restore_state(back->analyzer)) die("checkpoint restore failed");
      spans.end(id);
    }
    m["checkpoint.save_state_ms"] = spans.median_ns_per_op("checkpoint.save_state") / 1e6;
    m["checkpoint.encode_ms"] = spans.median_ns_per_op("checkpoint.encode") / 1e6;
    // CheckpointDir::write encodes before it writes; its self time here is
    // the file write (tmp file, rename, prune) alone.
    m["checkpoint.write_ms"] = spans.median_ns_per_op("checkpoint.write") / 1e6 -
                               m["checkpoint.encode_ms"];
    m["checkpoint.bytes"] = static_cast<double>(bytes);
    m["checkpoint.restore_ms"] = spans.median_ns_per_op("checkpoint.restore") / 1e6;
  }

  // core/tracker: on_log alone, then whole tasks with 1 and 2 workers on one
  // tracker (the ratio is emit-mutex contention), emitting into a channel
  // as the Monitor does.
  {
    core::NullSink sink;
    core::Logger logger(&registry, &sink, core::Level::kWarn);
    SteadyUsClock clock(now_ns());
    core::SynopsisChannel out;
    core::TaskExecutionTracker tracker(0, &clock,
                                       [&out](const core::Synopsis& s) { out.push(s); });
    logger.set_tracker(&tracker);
    pin_to(cpus, 1);
    for (std::uint64_t b = 0; b < 64; ++b) {
      tracker.set_context(script[b].stage);
      const auto id = spans.begin("tracker.on_log", b, kLayerBatch);
      for (std::size_t k = 0; k < kLayerBatch; ++k)
        logger.log(script[(b + k) % script.size()].hits[0]);
      spans.end(id);
      tracker.end_context();
    }
    std::vector<core::Synopsis> drained;
    out.drain(drained);
    replay_tasks(logger, tracker, script, 0, 128, "tracker.task", spans);
    out.drain(drained);
    SpanLog second;
    std::thread other([&] {
      pin_to(cpus, 2);
      replay_tasks(logger, tracker, script, 7919, 128, "tracker.task_2w", second);
    });
    replay_tasks(logger, tracker, script, 0, 128, "tracker.task_2w", spans);
    other.join();
    spans.merge(second);
    pin_to(cpus, 0);
    m["tracker.on_log_ns"] = spans.median_ns_per_op("tracker.on_log");
    m["tracker.task_ns"] = spans.median_ns_per_op("tracker.task");
    m["tracker.task_ns_2w"] = spans.median_ns_per_op("tracker.task_2w");
    m["tracker.unattributed_logs"] = static_cast<double>(tracker.unattributed_logs());
  }

  spans.write(need(flags, "spans"));
  std::string out = "{";
  for (const auto& [k, v] : m) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s\"%s\":%.6f", out.size() > 1 ? "," : "",
                  k.c_str(), v);
    out += buf;
  }
  std::puts((out + "}").c_str());
  return 0;
}
}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: saad_bench <gen|send|layers> "
                         "--key=value ...\n");
    return 2;
  }
  const std::string cmd = argv[1];
  const auto flags = parse_flags(argc, argv);
  core::register_pipeline_metrics();
  if (cmd == "gen") return cmd_gen(flags);
  if (cmd == "send") return cmd_send(flags);
  if (cmd == "layers") return cmd_layers(flags);
  std::fprintf(stderr, "saad_bench: unknown command %s\n", cmd.c_str());
  return 2;
}
