/**
 * @file
 * Figure 10: scalability to future, faster memories. The stacked
 * memory is accelerated to a 4 GHz HBM while the off-chip memory only
 * moves to DDR4-2400, widening the latency ratio between the tiers.
 * AMMAT is normalized to a 9 GB DDR4-2400-only configuration; HMA's
 * sort penalty is reduced 40% for the faster future CPU. "HBMoc" is
 * the overclocked-HBM-only bar.
 */
#include <cstdio>

#include "bench_util.h"

int
main(int argc, char **argv)
{
    using namespace mempod;
    using namespace mempod::bench;

    const Options opt = parseOptions(
        argc, argv, "fig10_scalability: future-system comparison");
    banner("Figure 10",
           "future system (HBM-4GHz + DDR4-2400), norm. to DDR-only",
           opt);

    const auto workloads =
        opt.full ? opt.suiteWorkloads() : opt.sweepWorkloads();

    struct Config
    {
        const char *label;
        SimConfig cfg;
    };
    std::vector<Config> configs;
    configs.push_back({"TLM", SimConfig::future(Mechanism::kNoMigration)});
    configs.push_back({"MemPod", SimConfig::future(Mechanism::kMemPod)});
    {
        SimConfig hma = SimConfig::future(Mechanism::kHma);
        hma.scaleHmaEpoch(40.0);
        // future() already reduced the stall by 40%; keep that ratio.
        hma.hma.sortStall = static_cast<TimePs>(hma.hma.sortStall * 0.6);
        configs.push_back({"HMA", hma});
    }
    configs.push_back({"THM", SimConfig::future(Mechanism::kThm)});
    configs.push_back({"CAMEO", SimConfig::future(Mechanism::kCameo)});
    configs.push_back({"HBMoc", SimConfig::fastOnly(/*future=*/true)});

    TablePrinter table({"workload", "TLM", "MemPod", "HMA", "THM",
                        "CAMEO", "HBMoc"});
    std::vector<std::vector<double>> norms(configs.size());

    BatchRunner runner(runnerOptions(opt));
    for (const auto &name : workloads) {
        runner.add(timingJob(SimConfig::slowOnly(/*future=*/true),
                             name, opt, "DDR-only"));
        for (const auto &c : configs)
            runner.add(timingJob(c.cfg, name, opt, c.label));
    }
    const std::vector<JobResult> results = runner.runAll();
    const std::size_t stride = 1 + configs.size();

    for (std::size_t w = 0; w < workloads.size(); ++w) {
        const std::string &name = workloads[w];
        const double ddr_only = need(results[w * stride]).ammatNs;
        std::vector<std::string> row{name};
        for (std::size_t c = 0; c < configs.size(); ++c) {
            const RunResult &r = need(results[w * stride + 1 + c]);
            const double norm = r.ammatNs / ddr_only;
            norms[c].push_back(norm);
            row.push_back(TablePrinter::num(norm, 3));
        }
        table.addRow(std::move(row));
    }

    std::vector<std::string> avg{"AVG"};
    for (auto &v : norms)
        avg.push_back(TablePrinter::num(mean(v), 3));
    table.addRow(std::move(avg));

    table.print();
    std::printf("\n");
    table.printCsv();

    const double tlm = mean(norms[0]);
    std::printf("\nimprovement over future TLM: MemPod %.0f%%, HMA "
                "%.0f%%, THM %.0f%%, CAMEO %.0f%%, HBMoc %.0f%%\n",
                100 * (1 - mean(norms[1]) / tlm),
                100 * (1 - mean(norms[2]) / tlm),
                100 * (1 - mean(norms[3]) / tlm),
                100 * (1 - mean(norms[4]) / tlm),
                100 * (1 - mean(norms[5]) / tlm));
    std::printf("paper: MemPod +24%%, THM +13%%, HMA +2%%, CAMEO -1%% "
                "vs TLM; HBMoc is 40%% faster than TLM. MemPod scales "
                "best as the tier latency ratio widens.\n");

    finishBench("fig10_scalability", opt, results);
    return 0;
}
