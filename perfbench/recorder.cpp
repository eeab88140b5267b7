#include "recorder.h"

#include <iomanip>
#include <ostream>

namespace perfbench {

int Recorder::add(std::string layer, std::string name, Clock::time_point start,
                  double dur_ms, int parent, std::uint64_t key) {
  spans_.push_back(
      {std::move(layer), std::move(name), key, parent, start, dur_ms});
  return static_cast<int>(spans_.size()) - 1;
}

int Recorder::begin(std::string layer, std::string name, int parent,
                    std::uint64_t key) {
  return add(std::move(layer), std::move(name), Clock::now(), 0.0, parent,
             key);
}

void Recorder::end(int id) {
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.dur_ms = ms_between(s.start, Clock::now());
}

std::map<std::string, LayerTotals> Recorder::layers() const {
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent != kNoParent) child_ms[static_cast<std::size_t>(s.parent)] += s.dur_ms;
  }
  std::map<std::string, LayerTotals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    LayerTotals& t = out[s.layer];
    ++t.spans;
    t.self_ms += s.dur_ms - child_ms[i];
    t.inclusive_ms += s.dur_ms;
  }
  return out;
}

void Recorder::print(std::ostream& os, std::size_t samples) const {
  const double per = samples > 0 ? 1.0 / static_cast<double>(samples) : 0.0;
  os << "# traced run: " << spans_.size() << " spans, " << samples
     << " samples (host ms; per-sample columns divide by the sample count)\n"
     << "# la and ingest spans are set-up; kernels, vgpu and abft spans are "
        "the registry probe\n";
  os << "# " << std::left << std::setw(14) << "layer" << std::right
     << std::setw(10) << "spans" << std::setw(14) << "inclusive" << std::setw(14)
     << "self" << std::setw(14) << "incl/sample" << std::setw(14)
     << "self/sample" << "\n";
  for (const auto& [layer, t] : layers()) {
    os << "# " << std::left << std::setw(14) << layer << std::right
       << std::setw(10) << t.spans << std::fixed << std::setprecision(3)
       << std::setw(14) << t.inclusive_ms << std::setw(14) << t.self_ms
       << std::setw(14) << t.inclusive_ms * per << std::setw(14)
       << t.self_ms * per << "\n";
    os.unsetf(std::ios::fixed);
  }
}

ScopedSpan::ScopedSpan(Recorder* rec, std::string layer, std::string name,
                       int parent, std::uint64_t key)
    : rec_(rec) {
  if (rec_ != nullptr) {
    id_ = rec_->begin(std::move(layer), std::move(name), parent, key);
  }
}

ScopedSpan::~ScopedSpan() {
  if (rec_ != nullptr) rec_->end(id_);
}

}  // namespace perfbench
