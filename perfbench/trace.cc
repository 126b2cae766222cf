#include "trace.h"

#include <cstdio>

namespace perfbench {

namespace {
const Clock::time_point kEpoch = Clock::now();
}  // namespace

int64_t ToNs(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - kEpoch)
      .count();
}

int64_t NowNs() { return ToNs(Clock::now()); }

int32_t Tracer::Record(const std::string& name, int64_t start_ns,
                       int64_t end_ns, int32_t parent, uint64_t request) {
  if (!enabled_) return kNoParent;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, start_ns, end_ns, parent, request});
  return static_cast<int32_t>(spans_.size() - 1);
}

int32_t Tracer::Open(const std::string& name, int32_t parent,
                     uint64_t request) {
  if (!enabled_) return kNoParent;
  int64_t now = NowNs();
  return Record(name, now, now, parent, request);
}

void Tracer::Close(int32_t id) {
  if (!enabled_ || id == kNoParent) return;
  int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_ns = now;
}

std::vector<double> Tracer::SelfNs() const {
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
  }
  for (const Span& s : spans_) {
    if (s.parent != kNoParent) {
      self[static_cast<size_t>(s.parent)] -=
          static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  return self;
}

std::map<std::string, double> Tracer::SelfSeconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> self = SelfNs();
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].name] += self[i] * 1e-9;
  }
  return out;
}

double Tracer::Coverage(const std::string& root) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> self = SelfNs();
  std::vector<size_t> tree(spans_.size());  // the root of each span
  double layers = 0.0;
  double roots = 0.0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    tree[i] = s.parent == kNoParent ? i : tree[static_cast<size_t>(s.parent)];
    if (spans_[tree[i]].name != root) continue;
    if (s.parent == kNoParent) {
      roots += static_cast<double>(s.end_ns - s.start_ns);
    } else {
      layers += self[i];
    }
  }
  return roots > 0.0 ? layers / roots : 0.0;
}

bool Tracer::WriteTsv(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id\tname\tstart_ns\tend_ns\tparent\trequest\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu\t%s\t%lld\t%lld\t%d\t%llu\n", i, s.name.c_str(),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<unsigned long long>(s.request));
  }
  return std::fclose(f) == 0;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

}  // namespace perfbench
