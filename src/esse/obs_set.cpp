#include "esse/obs_set.hpp"

#include "common/error.hpp"

namespace essex::esse {

ObsSet ObsSet::from_operator(const obs::ObsOperator& h) {
  std::vector<ObsEntry> entries;
  entries.reserve(h.count());
  for (std::size_t i = 0; i < h.count(); ++i) {
    const obs::Observation& ob = h.observations()[i];
    ObsEntry e;
    e.stencil = h.stencil_entries(i);
    e.value = ob.value;
    e.variance = ob.noise_std * ob.noise_std;
    e.positioned = true;
    e.x_km = ob.x_km;
    e.y_km = ob.y_km;
    entries.push_back(std::move(e));
  }
  return ObsSet(std::move(entries));
}

ObsSet ObsSet::from_linear(const std::vector<LinearObservation>& obs) {
  std::vector<ObsEntry> entries;
  entries.reserve(obs.size());
  for (const LinearObservation& ob : obs) {
    ObsEntry e;
    e.stencil = ob.stencil;
    e.value = ob.value;
    e.variance = ob.variance;
    entries.push_back(std::move(e));
  }
  return ObsSet(std::move(entries));
}

double ObsSet::apply_entry(std::size_t i, const la::Vector& x) const {
  double s = 0.0;
  for (const auto& [idx, w] : entries_[i].stencil) {
    ESSEX_REQUIRE(idx < x.size(), "stencil index out of range");
    s += w * x[idx];
  }
  return s;
}

double ObsSet::apply_mode(std::size_t i, const la::Matrix& modes,
                          std::size_t col) const {
  double s = 0.0;
  for (const auto& [idx, w] : entries_[i].stencil) {
    ESSEX_REQUIRE(idx < modes.rows(), "stencil index out of range");
    s += w * modes(idx, col);
  }
  return s;
}

la::Vector ObsSet::innovations(const la::Vector& x) const {
  la::Vector d(entries_.size());
  for (std::size_t i = 0; i < entries_.size(); ++i)
    d[i] = entries_[i].value - apply_entry(i, x);
  return d;
}

}  // namespace essex::esse
