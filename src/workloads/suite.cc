#include "workloads/suite.hh"

#include <cmath>

#include "common/bitfield.hh"
#include "common/fork_join.hh"

namespace canon
{

ArchSuite::ArchSuite(const CanonConfig &cfg) : ArchSuite(cfg, {}) {}

ArchSuite::ArchSuite(const CanonConfig &cfg,
                     const std::vector<std::string> &archs)
    : canon_(cfg),
      systolic_(SystolicConfig{16, 16, SparsitySupport::Dense}),
      systolic24_(SystolicConfig{16, 16, SparsitySupport::TwoFour}),
      zed_(ZedConfig{}), cgra_(CgraConfig{}),
      archs_(archs.begin(), archs.end())
{
}

std::vector<std::int64_t>
ArchSuite::sampleRowNnz(std::int64_t rows, std::int64_t k,
                        double density, std::uint64_t seed) const
{
    Rng rng(seed);
    std::vector<std::int64_t> nnz;
    nnz.reserve(static_cast<std::size_t>(rows));
    if (k <= 2048) {
        for (std::int64_t r = 0; r < rows; ++r) {
            std::int64_t c = 0;
            for (std::int64_t i = 0; i < k; ++i)
                if (rng.nextBool(density))
                    ++c;
            nnz.push_back(c);
        }
        return nnz;
    }
    // Normal approximation of Binomial(k, density) for large k.
    const double mean = static_cast<double>(k) * density;
    const double sd = std::sqrt(mean * (1.0 - density));
    for (std::int64_t r = 0; r < rows; ++r) {
        const double u1 = std::max(rng.nextDouble(), 1e-12);
        const double u2 = rng.nextDouble();
        const double z = std::sqrt(-2.0 * std::log(u1)) *
                         std::cos(2.0 * M_PI * u2);
        const double v = std::round(mean + sd * z);
        nnz.push_back(static_cast<std::int64_t>(
            std::clamp(v, 0.0, static_cast<double>(k))));
    }
    return nnz;
}

CaseResult
ArchSuite::gemm(std::int64_t m, std::int64_t k, std::int64_t n,
                std::uint64_t seed) const
{
    CaseResult r;
    if (enabled("canon"))
        r["canon"] = canon_.gemmShape(m, k, n, seed);
    if (enabled("systolic"))
        r["systolic"] = systolic_.gemm(m, k, n);
    if (enabled("systolic24"))
        r["systolic24"] = systolic24_.gemm(m, k, n);
    if (enabled("zed"))
        r["zed"] = zed_.gemm(m, k, n);
    if (enabled("cgra"))
        r["cgra"] = cgra_.gemm(m, k, n);
    return r;
}

CaseResult
ArchSuite::spmm(std::int64_t m, std::int64_t k, std::int64_t n,
                double sparsity, std::uint64_t seed) const
{
    CaseResult r;
    if (enabled("canon"))
        r["canon"] = canon_.spmmShape(m, k, n, sparsity, seed);
    if (enabled("systolic"))
        r["systolic"] = systolic_.spmm(m, k, n, sparsity);
    if (enabled("systolic24"))
        r["systolic24"] = systolic24_.spmm(m, k, n, sparsity);
    if (enabled("zed"))
        r["zed"] = zed_.spmmRows(
            sampleRowNnz(m, k, 1.0 - sparsity, seed + 1), n);
    if (enabled("cgra"))
        r["cgra"] = cgra_.spmm(m, k, n, sparsity);
    return r;
}

CaseResult
ArchSuite::spmmBimodal(std::int64_t m, std::int64_t k, std::int64_t n,
                       double sparsity_a, double sparsity_b,
                       std::uint64_t seed) const
{
    const auto &cfg = canon_.config();
    const int tile_n = cfg.cols * kSimdWidth;
    const double avg = (sparsity_a + sparsity_b) / 2.0;

    CaseResult r;
    if (enabled("canon") || enabled("zed")) {
        // Build the skewed matrix at proxy size; both the Canon cycle
        // simulator and ZeD's row model consume the *same* population.
        const auto mp =
            static_cast<int>(std::min<std::int64_t>(m, 512));
        const auto kp = static_cast<int>(std::min<std::int64_t>(
            k, static_cast<std::int64_t>(cfg.rows) * cfg.dmemSlots));
        Rng rng(seed);
        const auto a =
            randomSparseBimodal(mp, kp, sparsity_a, sparsity_b, rng);
        const auto csr = CsrMatrix::fromDense(a);

        if (enabled("canon")) {
            const auto b = randomDense(kp, tile_n, rng);
            const auto passes =
                divCeil(static_cast<std::uint64_t>(n),
                        static_cast<std::uint64_t>(tile_n));
            const double factor = (static_cast<double>(m) / mp) *
                                  (static_cast<double>(k) / kp) *
                                  static_cast<double>(passes);
            auto canon_p = canon_.spmmExact(csr, b);
            canon_p.scale(factor);
            canon_p.workload = "spmm-skewed";
            r["canon"] = canon_p;
        }

        if (enabled("zed")) {
            // ZeD holds the whole B (its banks are sized for it), so
            // it runs the full output width in one pass: scale only
            // the m/k proxying.
            std::vector<std::int64_t> rows;
            rows.reserve(static_cast<std::size_t>(mp));
            for (int i = 0; i < csr.rows(); ++i)
                rows.push_back(csr.rowNnz(i));
            auto zed_p = zed_.spmmRows(rows, n);
            zed_p.scale((static_cast<double>(m) / mp) *
                        (static_cast<double>(k) / kp));
            r["zed"] = zed_p;
        }
    }

    if (enabled("systolic"))
        r["systolic"] = systolic_.spmm(m, k, n, avg);
    if (enabled("systolic24"))
        r["systolic24"] = systolic24_.spmm(m, k, n, avg);
    if (enabled("cgra"))
        r["cgra"] = cgra_.spmm(m, k, n, avg);
    return r;
}

CaseResult
ArchSuite::spmmNm(std::int64_t m, std::int64_t k, std::int64_t n,
                  int nm_n, int nm_m, std::uint64_t seed) const
{
    CaseResult r;
    if (enabled("canon"))
        r["canon"] = canon_.nmShape(m, k, n, nm_n, nm_m, seed);
    if (enabled("systolic"))
        r["systolic"] = systolic_.gemm(m, k, n);
    if (enabled("systolic24"))
        r["systolic24"] = systolic24_.gemm(m, k, n, {nm_n, nm_m});
    if (enabled("zed")) {
        // ZeD treats structure as plain unstructured non-zeros: rows
        // are perfectly balanced at k*n/m non-zeros each.
        std::vector<std::int64_t> rows(
            static_cast<std::size_t>(m),
            static_cast<std::int64_t>(k) * nm_n / nm_m);
        r["zed"] = zed_.spmmRows(rows, n);
    }
    if (enabled("cgra"))
        r["cgra"] = cgra_.spmm(m, k, n,
                               1.0 - static_cast<double>(nm_n) / nm_m);
    return r;
}

CaseResult
ArchSuite::sddmm(std::int64_t m, std::int64_t k, std::int64_t n,
                 double mask_sparsity, std::uint64_t seed) const
{
    CaseResult r;
    if (enabled("canon"))
        r["canon"] = canon_.sddmmShape(m, k, n, mask_sparsity, seed);
    if (enabled("systolic"))
        r["systolic"] = systolic_.sddmm(m, k, n, mask_sparsity);
    if (enabled("systolic24"))
        r["systolic24"] = systolic24_.sddmm(m, k, n, mask_sparsity);
    if (enabled("zed"))
        r["zed"] = zed_.sddmmRows(
            sampleRowNnz(m, n, 1.0 - mask_sparsity, seed + 1), k);
    if (enabled("cgra"))
        r["cgra"] = cgra_.sddmm(m, k, n, mask_sparsity);
    return r;
}

CaseResult
ArchSuite::sddmmWindow(std::int64_t seq, std::int64_t k,
                       std::int64_t window, std::uint64_t seed) const
{
    CaseResult r;
    if (enabled("canon"))
        r["canon"] = canon_.sddmmWindowShape(seq, k, window, seed);
    if (enabled("systolic"))
        r["systolic"] = systolic_.sddmmWindow(seq, k, window);
    if (enabled("systolic24"))
        r["systolic24"] = systolic24_.sddmmWindow(seq, k, window);
    if (enabled("zed")) {
        // ZeD sees the band as an unstructured mask: `window` live
        // positions per row.
        std::vector<std::int64_t> rows(static_cast<std::size_t>(seq),
                                       window);
        r["zed"] = zed_.sddmmRows(rows, k);
    }
    if (enabled("cgra"))
        r["cgra"] = cgra_.sddmmWindow(seq, k, window);
    return r;
}

CaseResult
ArchSuite::model(const ModelSpec &spec, std::uint64_t seed) const
{
    // Layers are independent (layer i seeds from seed + i), so they
    // fork across idle pool workers; each lands in its own slot and
    // the sum below runs in layer order, as a serial loop would.
    std::vector<CaseResult> layers(spec.layers.size());
    parallelFor(spec.layers.size(), [&](std::size_t i) {
        const auto &layer = spec.layers[i];
        const std::uint64_t salt = seed + i;
        switch (layer.kind) {
          case LayerKind::Gemm:
            layers[i] = gemm(layer.m, layer.k, layer.n, salt);
            break;
          case LayerKind::Spmm:
            layers[i] = spmm(layer.m, layer.k, layer.n, layer.sparsity,
                             salt);
            break;
          case LayerKind::SddmmU:
            layers[i] = sddmm(layer.m, layer.k, layer.n,
                              layer.sparsity, salt);
            break;
          case LayerKind::SddmmWin:
            layers[i] = sddmmWindow(layer.m, layer.k, layer.window,
                                    salt);
            break;
        }
    });

    CaseResult total;
    for (std::size_t i = 0; i < layers.size(); ++i) {
        for (auto &[arch, profile] : layers[i]) {
            profile.scale(spec.layers[i].repeats);
            auto it = total.find(arch);
            if (it == total.end()) {
                profile.workload = spec.name;
                total.emplace(arch, std::move(profile));
            } else {
                it->second.accumulate(profile);
            }
        }
    }
    return total;
}

} // namespace canon
