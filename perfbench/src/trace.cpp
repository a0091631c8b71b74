#include "trace.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <unordered_map>
#include <utility>

#include "bench.hpp"

namespace perfbench {
namespace {

thread_local std::uint64_t t_current_span = 0;
std::atomic<std::uint32_t> g_next_tid{0};
thread_local std::uint32_t t_tid = g_next_tid.fetch_add(1) + 1;

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

void json_escape(std::ostream& os, const std::string& s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
      os << buf;
    } else {
      os << c;
    }
  }
}

}  // namespace

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

Tracer::Tracer() : origin_ns_(steady_ns()) {}

std::int64_t Tracer::now_ns() const { return steady_ns() - origin_ns_; }

std::int64_t Tracer::at_ns(Clock::time_point tp) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(tp.time_since_epoch()).count() -
         origin_ns_;
}

void Tracer::record(Span span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

std::vector<Tracer::Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::vector<std::int64_t> Tracer::self_ns(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index_of;
  for (std::size_t i = 0; i < spans.size(); ++i) index_of[spans[i].id] = i;
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    const auto it = index_of.find(s.parent);
    if (it != index_of.end()) children[it->second].emplace_back(s.start_ns, s.end_ns);
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    // Children on worker threads overlap each other, so subtract the
    // union of their intervals, clipped to the parent.
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t cursor = spans[i].start_ns;
    for (auto [a, b] : kids) {
      a = std::max(a, cursor);
      b = std::min(b, spans[i].end_ns);
      if (b > a) {
        covered += b - a;
        cursor = b;
      }
    }
    self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  const std::vector<Span> all = spans();
  const std::vector<std::int64_t> self = self_ns(all);
  std::ofstream os(path);
  if (!os) return false;
  os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  char num[64];
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    os << "{\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid << ",\"name\":\"";
    json_escape(os, s.name);
    std::snprintf(num, sizeof num, "%.3f", static_cast<double>(s.start_ns) / 1e3);
    os << "\",\"ts\":" << num;
    std::snprintf(num, sizeof num, "%.3f", static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    os << ",\"dur\":" << num << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
       << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
       << ",\"self_ns\":" << self[i] << ",\"subject\":\"";
    json_escape(os, s.subject);
    os << "\"}}" << (i + 1 == all.size() ? "\n" : ",\n");
  }
  os << "]}\n";
  return static_cast<bool>(os);
}

ScopedSpan::ScopedSpan(Tracer* tracer, const std::string& name, std::string subject,
                       bool worker_thread)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  span_.name = name;
  span_.subject = std::move(subject);
  span_.id = tracer_->next_id();
  span_.parent = worker_thread && t_current_span == 0 ? tracer_->fan_out_parent.load()
                                                      : t_current_span;
  span_.tid = t_tid;
  saved_current_ = t_current_span;
  t_current_span = span_.id;
  span_.start_ns = tracer_->now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  span_.end_ns = tracer_->now_ns();
  t_current_span = saved_current_;
  tracer_->record(std::move(span_));
}

}  // namespace perfbench
