// Ocean-acoustic uncertainty (paper §2.2): ensemble transmission-loss on
// a vertical section, the coupled physical–acoustical covariance, and the
// "acoustic climate" task grid the MTC layer fans out.
//
// Build & run:  ./build/examples/acoustic_climate  [out_dir]
#include <algorithm>
#include <cstdio>
#include <string>

#include "acoustics/ensemble.hpp"
#include "acoustics/slice.hpp"
#include "acoustics/sound_speed.hpp"
#include "acoustics/tl_solver.hpp"
#include "common/field_io.hpp"
#include "common/rng.hpp"
#include "esse/cycle.hpp"
#include "ocean/monterey.hpp"

int main(int argc, char** argv) {
  using namespace essex;
  const std::string out_dir = argc > 1 ? argv[1] : ".";

  ocean::Scenario sc = ocean::make_monterey_scenario(32, 28, 5);
  ocean::OceanModel model(sc.grid, sc.params, ocean::WindForcing(sc.wind),
                          sc.initial);

  // A small forecast ensemble supplies the ocean realisations.
  esse::ErrorSubspace subspace = esse::bootstrap_subspace(
      model, sc.initial, 0.0, 12.0, 12, 0.99, 10, /*seed=*/31);
  esse::PerturbationGenerator gen(subspace, {.white_noise = 0.01, .seed = 31});
  const la::Vector packed = sc.initial.pack();
  std::vector<la::Vector> members;
  for (std::size_t i = 0; i < 10; ++i) {
    ocean::OceanState s(sc.grid);
    s.unpack(gen.perturbed_state(packed, i), sc.grid);
    Rng mrng(31, i + 1);
    model.run(s, 0.0, 12.0, &mrng);
    members.push_back(s.pack());
  }
  std::printf("ensemble of %zu ocean realisations ready\n", members.size());

  // Cross-shore section through the bay mouth.
  acoustics::SliceGeometry geom;
  geom.x0_km = 4.0;
  geom.y0_km = 0.55 * sc.grid.dy_km() * (sc.grid.ny() - 1);
  geom.x1_km = 0.72 * sc.grid.dx_km() * (sc.grid.nx() - 1);
  geom.y1_km = geom.y0_km;
  geom.n_range = 64;
  geom.n_depth = 32;
  geom.max_depth_m = 200.0;

  acoustics::TLParams tl_params;
  tl_params.source_depth_m = 30.0;
  tl_params.frequency_khz = 1.0;

  // Single-realisation sound-speed + broadband TL for orientation.
  acoustics::SoundSpeedSlice slice =
      extract_slice(sc.grid, sc.initial, geom);
  std::printf("sound speed range on the section: %.1f – %.1f m/s\n",
              *std::min_element(slice.c.begin(), slice.c.end()),
              *std::max_element(slice.c.begin(), slice.c.end()));
  acoustics::TLField bb =
      compute_broadband_tl(slice, tl_params, {0.5, 1.0, 2.0});
  write_pgm(bb.to_field(), out_dir + "/tl_broadband.pgm");

  // Ensemble TL statistics: the acoustic uncertainty field.
  acoustics::TLEnsembleStats stats =
      acoustics::tl_ensemble_stats(sc.grid, members, geom, tl_params);
  Field2D sd_field;
  sd_field.nx = geom.n_range;
  sd_field.ny = geom.n_depth;
  sd_field.values.resize(stats.std_tl.size());
  for (std::size_t ir = 0; ir < geom.n_range; ++ir)
    for (std::size_t iz = 0; iz < geom.n_depth; ++iz)
      sd_field.values[iz * geom.n_range + ir] =
          stats.std_tl[ir * geom.n_depth + iz];
  sd_field.x1 = geom.length_km();
  sd_field.y1 = geom.max_depth_m;
  write_pgm(sd_field, out_dir + "/tl_stddev.pgm");
  write_field_csv(sd_field, out_dir + "/tl_stddev.csv");
  std::printf("\nTL uncertainty (std, dB) on the section "
              "(x = range, y = depth):\n%s",
              ascii_map(sd_field, 64, 16).c_str());

  // Coupled physical–acoustical covariance and its dominant modes.
  acoustics::CoupledCovariance cov =
      acoustics::coupled_covariance(sc.grid, members, geom, tl_params, 6);
  std::printf("\ncoupled (T, TL) covariance: rank %zu modes, "
              "T scale %.3f degC, TL scale %.2f dB, coupling %.4f\n",
              cov.modes.rank(), cov.t_scale, cov.tl_scale,
              cov.coupling_strength());

  // The acoustic-climate task grid (what §5.2.1 fanned 6000+ jobs from).
  auto tasks = acoustics::acoustic_climate_tasks(
      sc.grid, 24, {10.0, 30.0, 60.0}, {0.25, 0.5, 1.0, 2.0});
  std::printf("\nacoustic climate: %zu (slice × depth × frequency) tasks "
              "enumerated for the MTC fan-out\n",
              tasks.size());
  std::printf("wrote tl_broadband.pgm, tl_stddev.pgm/csv to %s\n",
              out_dir.c_str());
  return 0;
}
