#include "alloc/quota.h"

#include "util/log.h"

#include <algorithm>

namespace cheriot::alloc
{

QuotaId
QuotaLedger::create(uint64_t limitBytes)
{
    Entry entry;
    entry.limit = limitBytes;
    entries_.push_back(entry);
    return static_cast<QuotaId>(entries_.size());
}

bool
QuotaLedger::charge(QuotaId id, uint64_t bytes)
{
    if (id == kUnmeteredQuota) {
        return true;
    }
    if (id > entries_.size()) {
        return false;
    }
    Entry &entry = entries_[id - 1];
    if (entry.used + bytes > entry.limit) {
        entry.denials++;
        return false;
    }
    entry.used += bytes;
    entry.peak = std::max(entry.peak, entry.used);
    return true;
}

void
QuotaLedger::chargeUnchecked(QuotaId id, uint64_t bytes)
{
    if (id == kUnmeteredQuota || id > entries_.size()) {
        return;
    }
    Entry &entry = entries_[id - 1];
    entry.used += bytes;
    entry.peak = std::max(entry.peak, entry.used);
}

void
QuotaLedger::credit(QuotaId id, uint64_t bytes)
{
    if (id == kUnmeteredQuota || id > entries_.size()) {
        return;
    }
    Entry &entry = entries_[id - 1];
    if (entry.used < bytes) {
        panic("quota: credit of %llu bytes exceeds the %llu charged "
              "to entry %u (accounting corruption)",
              static_cast<unsigned long long>(bytes),
              static_cast<unsigned long long>(entry.used), id);
    }
    entry.used -= bytes;
}

const QuotaLedger::Entry *
QuotaLedger::entry(QuotaId id) const
{
    if (id == kUnmeteredQuota || id > entries_.size()) {
        return nullptr;
    }
    return &entries_[id - 1];
}

uint64_t
QuotaLedger::totalUsed() const
{
    uint64_t total = 0;
    for (const Entry &entry : entries_) {
        total += entry.used;
    }
    return total;
}

uint64_t
QuotaLedger::totalDenials() const
{
    uint64_t total = 0;
    for (const Entry &entry : entries_) {
        total += entry.denials;
    }
    return total;
}

} // namespace cheriot::alloc
