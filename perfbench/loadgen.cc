// gf_loadgen — the benchmark's closed-loop load generator and CPU probe.
//
// Plain POSIX sockets and no groupform headers, so the end-to-end
// measurement does not depend on any program API and the generator
// costs a few microseconds per request.
//
//   gf_loadgen probe
//       Times a fixed amount of integer work and prints
//       {"probe_ms": ...}: the host-speed reference taken before and
//       after every run.
//
//   gf_loadgen run --port P --requests a.jsonl,b.jsonl
//                  --expect a.out,b.out [--warm W] [--seconds T]
//                  [--pids p1,p2] [--out stats.json]
//       One connection per request file. Warm-up sends the first W
//       lines of every file in lockstep (file 0 line 0, file 1 line 0,
//       file 0 line 1, ...), so the server sees one fixed order. The
//       timed phase then runs every connection as a closed loop for T
//       seconds, continuing from line W and cycling through the file.
//       Every response is compared byte for byte with the same line of
//       the matching expect file; a mismatch, a DNF or an ERR counts as
//       failed. --pids names the server processes whose utime+stime are
//       sampled at the edges of the timed phase.
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "gf_loadgen: %s\n", message.c_str());
  std::exit(1);
}

std::vector<std::string> Split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t end = text.find(sep, start);
    parts.push_back(text.substr(start, end - start));
    if (end == std::string::npos) break;
    start = end + 1;
  }
  return parts;
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  if (!in) Die("cannot read " + path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

/// One blocking newline-JSON connection.
class Connection {
 public:
  explicit Connection(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) Die("socket failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      Die("connect to port " + std::to_string(port) + ": " +
          std::strerror(errno));
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }

  void Send(const std::string& line) {
    out_.assign(line);
    out_.push_back('\n');
    std::size_t sent = 0;
    while (sent < out_.size()) {
      const ssize_t n =
          ::send(fd_, out_.data() + sent, out_.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) Die(std::string("send: ") + std::strerror(errno));
      sent += static_cast<std::size_t>(n);
    }
  }

  /// Reads one response line (without its terminator) into *line.
  void Receive(std::string* line) {
    for (;;) {
      const std::size_t newline = in_.find('\n', scanned_);
      if (newline != std::string::npos) {
        line->assign(in_, 0, newline);
        in_.erase(0, newline + 1);
        scanned_ = 0;
        return;
      }
      scanned_ = in_.size();
      char buffer[65536];
      const ssize_t n = ::recv(fd_, buffer, sizeof(buffer), 0);
      if (n <= 0) Die("server closed the connection");
      in_.append(buffer, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string out_;
  std::string in_;
  std::size_t scanned_ = 0;
};

/// The text of a top-level string field ("" when absent).
std::string StringField(const std::string& doc, const char* name) {
  const std::string key = std::string("\"") + name + "\":\"";
  const std::size_t at = doc.find(key);
  if (at == std::string::npos) return "";
  const std::size_t begin = at + key.size();
  return doc.substr(begin, doc.find('"', begin) - begin);
}

double NumberField(const std::string& doc, const char* name) {
  const std::string key = std::string("\"") + name + "\":";
  const std::size_t at = doc.find(key);
  if (at == std::string::npos) return 0.0;
  return std::strtod(doc.c_str() + at + key.size(), nullptr);
}

/// Counts and sums over one set of responses.
struct Tally {
  long long sent = 0;
  long long ok = 0;
  long long dnf = 0;
  long long err = 0;
  long long mismatch = 0;
  double objective_sum = 0.0;
  /// Round trip of every good response, in microseconds.
  std::vector<double> latency_us;
  double overhead_us = 0.0;
  long long overhead_samples = 0;

  void Add(const Tally& other) {
    sent += other.sent;
    ok += other.ok;
    dnf += other.dnf;
    err += other.err;
    mismatch += other.mismatch;
    objective_sum += other.objective_sum;
    latency_us.insert(latency_us.end(), other.latency_us.begin(),
                      other.latency_us.end());
    overhead_us += other.overhead_us;
    overhead_samples += other.overhead_samples;
  }
  long long failed() const { return sent - ok + mismatch; }
};

struct Client {
  std::vector<std::string> requests;
  std::vector<std::string> expected;
  std::unique_ptr<Connection> connection;
  std::string response;
  long long first_mismatch = -1;
  /// Objective of each request line's good response, NaN until one
  /// arrives; averaged over lines, it does not depend on how many times
  /// the run cycled through the list.
  std::vector<double> line_objective;
};

/// Checks one response against its reference line and tallies it; true
/// when it is OK and byte-identical to the reference.
bool Check(Client& client, std::size_t index, Tally& tally) {
  const std::string& got = client.response;
  const std::string state = StringField(got, "state");
  double objective = 0.0;
  if (state == "OK") {
    ++tally.ok;
    objective = NumberField(got, "objective");
    tally.objective_sum += objective;
  } else if (state == "DNF") {
    ++tally.dnf;
  } else {
    ++tally.err;
  }
  if (got != client.expected[index] && state == "OK") {
    ++tally.mismatch;
    if (client.first_mismatch < 0) {
      client.first_mismatch = static_cast<long long>(index);
      std::fprintf(stderr,
                   "gf_loadgen: response to line %zu differs from the "
                   "reference\n  got:      %.300s\n  expected: %.300s\n",
                   index, got.c_str(), client.expected[index].c_str());
    }
    return false;
  }
  if (state != "OK") return false;
  client.line_objective[index] = objective;
  return true;
}

/// Nearest rank: the 1-based rank of the smallest sample with at least
/// a share q of the sample at or below it.
std::size_t Rank(std::size_t n, double q) {
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return std::clamp<std::size_t>(rank, 1, n);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values[Rank(values.size(), q) - 1];
}

/// utime + stime of the listed processes, in milliseconds.
double ServerCpuMs(const std::vector<int>& pids) {
  static const long ticks_per_second = ::sysconf(_SC_CLK_TCK);
  double ticks = 0.0;
  for (const int pid : pids) {
    std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
    std::string stat;
    if (!std::getline(in, stat)) Die("cannot read /proc stat of " +
                                     std::to_string(pid));
    // Fields after the parenthesised command name: state is field 3,
    // utime field 14 and stime field 15.
    const std::vector<std::string> fields =
        Split(stat.substr(stat.rfind(')') + 2), ' ');
    ticks += std::strtod(fields[11].c_str(), nullptr) +
             std::strtod(fields[12].c_str(), nullptr);
  }
  return ticks * 1000.0 / static_cast<double>(ticks_per_second);
}

void PrintTally(std::FILE* out, const char* name, const Tally& tally) {
  std::fprintf(out,
               "\"%s\":{\"sent\":%lld,\"ok\":%lld,\"dnf\":%lld,\"err\":%lld,"
               "\"mismatch\":%lld,\"failed\":%lld,\"objective_sum\":%.17g",
               name, tally.sent, tally.ok, tally.dnf, tally.err,
               tally.mismatch, tally.failed(), tally.objective_sum);
}

int RunProbe() {
  // A dependent multiply-xorshift chain: fixed work, no memory traffic,
  // so the time tracks the core's speed and any steal from neighbours.
  std::vector<double> samples;
  for (int round = 0; round < 5; ++round) {
    const auto start = Clock::now();
    std::uint64_t x = 88172645463325252ull;
    for (int i = 0; i < 4000000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      x *= 0x9E3779B97F4A7C15ull;
    }
    const double ms = Seconds(Clock::now() - start) * 1000.0;
    if (x == 42) std::printf(" ");  // keeps the chain observable
    samples.push_back(ms);
  }
  std::printf("{\"probe_ms\":%.6f}\n", Percentile(samples, 0.5));
  return 0;
}

int RunLoad(int argc, char** argv) {
  int port = 0;
  std::vector<std::string> request_files;
  std::vector<std::string> expect_files;
  std::size_t warm = 0;
  double seconds = 0.0;
  std::vector<int> pids;
  std::string out_path;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--port") {
      port = std::atoi(value.c_str());
    } else if (flag == "--requests") {
      request_files = Split(value, ',');
    } else if (flag == "--expect") {
      expect_files = Split(value, ',');
    } else if (flag == "--warm") {
      warm = static_cast<std::size_t>(std::atoll(value.c_str()));
    } else if (flag == "--seconds") {
      seconds = std::atof(value.c_str());
    } else if (flag == "--pids") {
      for (const std::string& pid : Split(value, ',')) {
        pids.push_back(std::atoi(pid.c_str()));
      }
    } else if (flag == "--out") {
      out_path = value;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (port <= 0 || request_files.empty() ||
      request_files.size() != expect_files.size()) {
    Die("run needs --port, and --requests and --expect of equal length");
  }

  std::vector<Client> clients(request_files.size());
  for (std::size_t c = 0; c < clients.size(); ++c) {
    clients[c].requests = ReadLines(request_files[c]);
    clients[c].expected = ReadLines(expect_files[c]);
    if (clients[c].requests.empty() ||
        clients[c].requests.size() != clients[c].expected.size()) {
      Die("request and expect files differ in length: " + request_files[c]);
    }
    if (warm > clients[c].requests.size()) Die("--warm exceeds a list");
    clients[c].line_objective.assign(clients[c].requests.size(),
                                     std::nan(""));
  }

  // Warm-up: connect, then the fixed lockstep order.
  const auto warm_start = Clock::now();
  for (Client& client : clients) {
    client.connection = std::make_unique<Connection>(port);
  }
  Tally warm_tally;
  for (std::size_t i = 0; i < warm; ++i) {
    for (Client& client : clients) {
      client.connection->Send(client.requests[i]);
      ++warm_tally.sent;
      client.connection->Receive(&client.response);
      Check(client, i, warm_tally);
    }
  }
  const double warm_ms = Seconds(Clock::now() - warm_start) * 1000.0;

  // Timed phase: every connection a closed loop on its own thread.
  Tally timed;
  double elapsed_s = 0.0;
  double cpu_ms = 0.0;
  if (seconds > 0.0) {
    std::vector<Tally> tallies(clients.size());
    std::vector<Clock::time_point> last_done(clients.size());
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    Clock::time_point start;
    Clock::time_point deadline;
    for (std::size_t c = 0; c < clients.size(); ++c) {
      threads.emplace_back([&, c] {
        while (!go.load(std::memory_order_acquire)) {
        }
        Client& client = clients[c];
        Tally& tally = tallies[c];
        tally.latency_us.reserve(1 << 16);
        std::size_t index = warm % client.requests.size();
        Clock::time_point received = start;
        for (;;) {
          const auto sent_at = Clock::now();
          if (sent_at >= deadline) break;
          if (tally.sent > 0) {
            tally.overhead_us += Seconds(sent_at - received) * 1e6;
            ++tally.overhead_samples;
          }
          client.connection->Send(client.requests[index]);
          ++tally.sent;
          client.connection->Receive(&client.response);
          received = Clock::now();
          if (Check(client, index, tally)) {
            tally.latency_us.push_back(Seconds(received - sent_at) * 1e6);
          }
          index = (index + 1) % client.requests.size();
        }
        last_done[c] = received;
      });
    }
    start = Clock::now();
    deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    // Server CPU time over the timed phase.
    const double cpu_start_ms = ServerCpuMs(pids);
    go.store(true, std::memory_order_release);
    for (std::thread& thread : threads) thread.join();
    cpu_ms = ServerCpuMs(pids) - cpu_start_ms;
    const auto end = *std::max_element(last_done.begin(), last_done.end());
    elapsed_s = Seconds(end - start);
    for (const Tally& tally : tallies) timed.Add(tally);
  }
  // Every client socket closes here, before the caller signals a server.
  for (Client& client : clients) client.connection.reset();

  std::FILE* out = out_path.empty() ? stdout : std::fopen(out_path.c_str(), "w");
  if (out == nullptr) Die("cannot write " + out_path);
  std::fprintf(out, "{\"warm_ms\":%.6f,", warm_ms);
  PrintTally(out, "warm", warm_tally);
  std::fprintf(out, "},");
  PrintTally(out, "timed", timed);
  double line_objective_sum = 0.0;
  long long lines_answered = 0;
  for (const Client& client : clients) {
    for (const double objective : client.line_objective) {
      if (std::isnan(objective)) continue;
      line_objective_sum += objective;
      ++lines_answered;
    }
  }
  const std::size_t samples = timed.latency_us.size();
  std::fprintf(out,
               "},\"elapsed_s\":%.6f,\"latency_p50_us\":%.3f,"
               "\"latency_p90_us\":%.3f,\"beyond_p90\":%zu,"
               "\"overhead_us\":%.3f,\"server_cpu_ms\":%.3f,"
               "\"line_objective_mean\":%.17g,\"lines_answered\":%lld",
               elapsed_s, Percentile(timed.latency_us, 0.5),
               Percentile(timed.latency_us, 0.9),
               samples == 0 ? 0 : samples - Rank(samples, 0.9),
               timed.overhead_samples > 0
                   ? timed.overhead_us /
                         static_cast<double>(timed.overhead_samples)
                   : 0.0,
               cpu_ms,
               lines_answered > 0
                   ? line_objective_sum / static_cast<double>(lines_answered)
                   : 0.0,
               lines_answered);
  std::fprintf(out, "}\n");
  if (out != stdout) std::fclose(out);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::string(argv[1]) == "probe") return RunProbe();
  if (argc >= 2 && std::string(argv[1]) == "run") return RunLoad(argc, argv);
  std::fprintf(stderr,
               "usage: gf_loadgen probe | run --port P --requests a,b "
               "--expect a,b [--warm W] [--seconds T] [--pids p,q] "
               "[--out FILE]\n");
  return 2;
}
