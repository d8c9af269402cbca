#include "obs/provenance.hh"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>

#include "obs/timeline.hh"

namespace pcstall::obs
{

namespace
{

/** Reference-sum clamp for the relative regret forms. */
constexpr double relFloor = 1e-12;

double
relTo(double delta, double reference)
{
    return delta / std::max(std::abs(reference), relFloor);
}

} // namespace

double
DecisionRecord::chosenScoreSum() const
{
    double sum = 0.0;
    for (const DomainDecisionProv &d : domains)
        sum += d.chosenScore;
    return sum;
}

double
DecisionRecord::bestScoreSum() const
{
    double sum = 0.0;
    for (const DomainDecisionProv &d : domains)
        sum += d.bestScore;
    return sum;
}

double
DecisionRecord::nominalScoreSum() const
{
    double sum = 0.0;
    for (const DomainDecisionProv &d : domains)
        sum += d.nominalScore;
    return sum;
}

double
DecisionRecord::oracleRegret() const
{
    return realized ? chosenScoreSum() - bestScoreSum() : 0.0;
}

double
DecisionRecord::staticRegret() const
{
    return realized ? chosenScoreSum() - nominalScoreSum() : 0.0;
}

double
DecisionRecord::oracleRegretRel() const
{
    return realized ? relTo(oracleRegret(), bestScoreSum()) : 0.0;
}

double
DecisionRecord::staticRegretRel() const
{
    return realized ? relTo(staticRegret(), nominalScoreSum()) : 0.0;
}

void
RegretSummary::add(double oracle_rel, double static_rel)
{
    if (buckets.empty())
        buckets.assign(numBuckets, 0);
    ++count;
    oracleSum += oracle_rel;
    oracleMax = std::max(oracleMax, oracle_rel);
    staticSum += static_rel;

    std::size_t idx = 0;
    if (oracle_rel >= std::ldexp(1.0, maxExp)) {
        idx = numBuckets - 1;
    } else if (oracle_rel >= std::ldexp(1.0, minExp)) {
        const double pos =
            std::floor(std::log2(oracle_rel) * bucketsPerOctave);
        idx = 1 + static_cast<std::size_t>(
            static_cast<long>(pos) -
            static_cast<long>(minExp) * bucketsPerOctave);
        idx = std::min(idx, numBuckets - 2);
    }
    ++buckets[idx];
}

void
RegretSummary::merge(const RegretSummary &other)
{
    if (other.count == 0)
        return;
    if (buckets.empty())
        buckets.assign(numBuckets, 0);
    count += other.count;
    oracleSum += other.oracleSum;
    oracleMax = std::max(oracleMax, other.oracleMax);
    staticSum += other.staticSum;
    const std::size_t n = std::min(buckets.size(),
                                   other.buckets.size());
    for (std::size_t i = 0; i < n; ++i)
        buckets[i] += other.buckets[i];
}

double
RegretSummary::meanOracle() const
{
    return count > 0 ? oracleSum / static_cast<double>(count) : 0.0;
}

double
RegretSummary::meanStatic() const
{
    return count > 0 ? staticSum / static_cast<double>(count) : 0.0;
}

double
RegretSummary::percentile(double p) const
{
    if (count == 0 || buckets.empty())
        return 0.0;
    p = std::clamp(p, 0.0, 1.0);
    const std::uint64_t target = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               std::ceil(p * static_cast<double>(count))));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < buckets.size(); ++i) {
        seen += buckets[i];
        if (seen < target)
            continue;
        if (i == 0)
            return std::ldexp(1.0, minExp);
        if (i == buckets.size() - 1)
            return oracleMax;
        // Upper edge of finite bucket i.
        const double exp2 = static_cast<double>(minExp) +
            static_cast<double>(i) / bucketsPerOctave;
        return std::min(std::exp2(exp2), oracleMax);
    }
    return oracleMax;
}

std::string
provenanceJson(const ProvenanceLog &log)
{
    const ProvenanceMeta &meta = log.meta;
    std::string doc = "{\n  \"schema\": \"pcstall-provenance-v1\",\n";
    doc += "  \"meta\": {\"workload\": " + jsonString(meta.workload) +
        ", \"controller\": " + jsonString(meta.controller) +
        ", \"objective\": " + jsonString(meta.objective) +
        ", \"epoch_len_ticks\": " + std::to_string(meta.epochLen) +
        ", \"domains\": " + std::to_string(meta.numDomains) +
        ", \"nominal_state\": " + std::to_string(meta.nominalState) +
        ", \"state_freq_mhz\": [";
    for (std::size_t s = 0; s < meta.stateFreqMhz.size(); ++s) {
        doc += (s != 0 ? ", " : "") +
            std::to_string(meta.stateFreqMhz[s]);
    }
    doc += "]},\n";
    const RegretSummary &reg = log.regret;
    doc += "  \"regret\": {\"decisions\": " +
        std::to_string(reg.count) +
        ", \"mean_oracle\": " + jsonNumber(reg.meanOracle()) +
        ", \"p95_oracle\": " + jsonNumber(reg.percentile(0.95)) +
        ", \"max_oracle\": " + jsonNumber(reg.oracleMax) +
        ", \"mean_static\": " + jsonNumber(reg.meanStatic()) +
        "},\n  \"records\": [\n";
    for (std::size_t i = 0; i < log.records.size(); ++i) {
        const DecisionRecord &rec = log.records[i];
        doc += "    {\"epoch\": " + std::to_string(rec.epoch) +
            ", \"start\": " + std::to_string(rec.start) +
            ", \"fallback\": " +
            (rec.fallbackActive ? "true" : "false") +
            ", \"realized\": " + (rec.realized ? "true" : "false");
        if (rec.realized) {
            doc += ", \"oracle_regret_rel\": " +
                jsonNumber(rec.oracleRegretRel()) +
                ", \"static_regret_rel\": " +
                jsonNumber(rec.staticRegretRel());
        }
        doc += ", \"domains\": [";
        for (std::size_t d = 0; d < rec.domains.size(); ++d) {
            const DomainDecisionProv &dom = rec.domains[d];
            char pc[24];
            std::snprintf(pc, sizeof(pc), "0x%" PRIx64, dom.pcKey);
            doc += std::string(d != 0 ? ", " : "") +
                "{\"pc\": \"" + pc +
                "\", \"lookups\": " + std::to_string(dom.lookups) +
                ", \"hits\": " + std::to_string(dom.hits) +
                ", \"same_region\": " +
                std::to_string(dom.sameRegion) +
                ", \"reactive\": " + std::to_string(dom.reactive) +
                ", \"pred_sens\": " + jsonNumber(dom.predictedSens) +
                ", \"pred_level\": " +
                jsonNumber(dom.predictedLevel) +
                ", \"pred_instr\": " +
                jsonNumber(dom.predictedInstr) +
                ", \"elapsed_instr\": " +
                std::to_string(dom.elapsedInstr) +
                ", \"load_stall_ticks\": " +
                std::to_string(dom.loadStallTicks) +
                ", \"mem_accesses\": " +
                std::to_string(dom.memAccesses) +
                ", \"chosen_state\": " +
                std::to_string(dom.chosenState) +
                ", \"applied_state\": " +
                std::to_string(dom.appliedState);
            if (rec.realized) {
                doc += ", \"realized_instr\": " +
                    std::to_string(dom.realizedInstr) +
                    ", \"chosen_score\": " +
                    jsonNumber(dom.chosenScore) +
                    ", \"best_score\": " +
                    jsonNumber(dom.bestScore) +
                    ", \"best_state\": " +
                    std::to_string(dom.bestState) +
                    ", \"nominal_score\": " +
                    jsonNumber(dom.nominalScore);
            }
            doc += "}";
        }
        doc += "], \"state_scores\": [";
        for (std::size_t s = 0; s < rec.stateScores.size(); ++s) {
            doc += (s != 0 ? ", " : "") +
                jsonNumber(rec.stateScores[s]);
        }
        doc += "]}";
        doc += i + 1 != log.records.size() ? ",\n" : "\n";
    }
    doc += "  ]\n}\n";
    return doc;
}

} // namespace pcstall::obs
