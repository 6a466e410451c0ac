#include "tracer.hpp"

#include <algorithm>
#include <fstream>
#include <limits>

namespace perfbench {

Tracer::Scope::Scope(Tracer& tracer, std::string_view name,
                     std::int64_t request)
    : tracer_(tracer) {
  if (!tracer_.enabled_) return;
  Span span;
  span.name = std::string(name);
  span.parent = tracer_.open_.empty() ? -1 : tracer_.open_.back();
  span.request = request;
  span.start_s = seconds_since(tracer_.origin_);
  index_ = static_cast<int>(tracer_.spans_.size());
  tracer_.spans_.push_back(std::move(span));
  tracer_.open_.push_back(index_);
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  tracer_.spans_[static_cast<std::size_t>(index_)].end_s =
      seconds_since(tracer_.origin_);
  tracer_.open_.pop_back();
}

void Tracer::count(std::string_view name, double value) {
  auto it = counts_.find(name);
  if (it == counts_.end()) it = counts_.emplace(std::string(name), 0.0).first;
  it->second += value;
}

double Tracer::counted(std::string_view name) const {
  const auto it = counts_.find(name);
  return it == counts_.end() ? 0.0 : it->second;
}

void Tracer::sample(std::string_view name, double value) {
  auto it = samples_.find(name);
  if (it == samples_.end()) {
    it = samples_.emplace(std::string(name), std::vector<double>{}).first;
  }
  it->second.push_back(value);
}

std::vector<double> Tracer::samples(std::string_view name) const {
  const auto it = samples_.find(name);
  return it == samples_.end() ? std::vector<double>{} : it->second;
}

std::vector<double> Tracer::self_times() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_s - spans_[i].start_s;
  }
  // Children are nested and sequential (one thread per tracer), so the
  // interval they cover is the sum of their durations.
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      self[static_cast<std::size_t>(span.parent)] -= span.end_s - span.start_s;
    }
  }
  return self;
}

double Tracer::self_time(std::string_view name) const {
  return self_time(std::span<const std::string_view>(&name, 1));
}

std::vector<double> Tracer::durations(std::string_view name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name) out.push_back(span.end_s - span.start_s);
  }
  return out;
}

double Tracer::self_time(std::span<const std::string_view> names) const {
  const auto self = self_times();
  double total = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (std::find(names.begin(), names.end(), spans_[i].name) != names.end()) {
      total += self[i];
    }
  }
  return total;
}

void Tracer::write(const std::filesystem::path& path) const {
  std::ofstream out(path);
  out.precision(std::numeric_limits<double>::max_digits10);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << "{\"id\": " << i << ", \"name\": \"" << span.name
        << "\", \"start_s\": " << span.start_s << ", \"end_s\": " << span.end_s
        << ", \"parent\": " << span.parent << ", \"request\": " << span.request
        << "}\n";
  }
}

}  // namespace perfbench
