#include "rtos/object_cap.h"

#include "fault/fault_injector.h"
#include "sim/machine.h"
#include "util/log.h"

#include <algorithm>

namespace cheriot::rtos
{

using cap::Capability;

namespace
{

/** The FlowManager avalanche mix (two rounds of multiply-xorshift). */
uint32_t
mix(uint32_t v)
{
    v ^= v >> 16;
    v *= 0x7feb352du;
    v ^= v >> 15;
    v *= 0x846ca68bu;
    v ^= v >> 16;
    return v;
}

} // namespace

const char *
objectCapTypeName(ObjectCapType type)
{
    switch (type) {
    case ObjectCapType::Time:
        return "time";
    case ObjectCapType::Channel:
        return "channel";
    case ObjectCapType::Monitor:
        return "monitor";
    }
    return "?";
}

const char *
capResultName(CapResult result)
{
    switch (result) {
    case CapResult::Ok:
        return "Ok";
    case CapResult::InvalidCap:
        return "InvalidCap";
    case CapResult::Revoked:
        return "Revoked";
    case CapResult::BoundsViolation:
        return "BoundsViolation";
    case CapResult::PermViolation:
        return "PermViolation";
    case CapResult::Exhausted:
        return "Exhausted";
    }
    return "?";
}

ObjectCapTable::ObjectCapTable(GuestContext &guest, TokenLibrary &tokens,
                               alloc::HeapAllocator &allocator)
    : guest_(guest), tokens_(tokens), allocator_(allocator)
{
    key_ = tokens_.createKey();
    if (!key_.tag()) {
        fatal("object-cap table: minting the sealing key failed");
    }
    snapshot::registerStats(stats_, *this);
}

uint32_t
ObjectCapTable::canaryOf(const Entry &entry, uint32_t id) const
{
    uint32_t h = mix(id ^ 0x0bedc0deu);
    h = mix(h ^ static_cast<uint32_t>(entry.type));
    h = mix(h ^ entry.ownerIndex);
    h = mix(h ^ entry.parent);
    h = mix(h ^ static_cast<uint32_t>(entry.begin) ^
            static_cast<uint32_t>(entry.begin >> 32));
    h = mix(h ^ static_cast<uint32_t>(entry.end) ^
            static_cast<uint32_t>(entry.end >> 32));
    h = mix(h ^ static_cast<uint32_t>(entry.mark) ^
            static_cast<uint32_t>(entry.mark >> 32));
    h = mix(h ^ (entry.canSend ? 0x5u : 0x0u) ^
            (entry.canReceive ? 0xa0u : 0x0u));
    h = mix(h ^ entry.target);
    h = mix(h ^ static_cast<uint32_t>(entry.children.size()));
    for (const uint32_t child : entry.children) {
        h = mix(h ^ child);
    }
    return h;
}

void
ObjectCapTable::resealCanary(uint32_t id)
{
    entries_[id].canary = canaryOf(entries_[id], id);
}

void
ObjectCapTable::scramble(Entry &entry, uint32_t pattern)
{
    // Rotate the disturbance across the identity fields so a campaign
    // of injections exercises every canary term, including the tree
    // links (parent pointer and children list).
    switch (pattern % 6u) {
    case 0:
        entry.ownerIndex ^= pattern;
        break;
    case 1:
        entry.parent ^= pattern;
        break;
    case 2:
        entry.begin ^= pattern;
        entry.end ^= static_cast<uint64_t>(pattern) << 8;
        break;
    case 3:
        entry.target ^= pattern;
        break;
    case 4:
        entry.children.push_back(pattern);
        break;
    case 5:
        entry.type = static_cast<ObjectCapType>(
            (static_cast<uint32_t>(entry.type) + pattern) % 3u);
        entry.canSend = !entry.canSend;
        break;
    }
}

void
ObjectCapTable::processDueRevocations()
{
    if (pending_.empty()) {
        return;
    }
    const uint64_t now = guest_.machine().cycles();
    for (size_t i = 0; i < pending_.size();) {
        if (pending_[i].atCycle <= now) {
            const uint32_t id = pending_[i].id;
            pending_.erase(pending_.begin() +
                           static_cast<ptrdiff_t>(i));
            if (id < entries_.size() && entries_[id].alive) {
                killSubtree(id);
                revocations++;
                scheduledRevocations++;
            }
        } else {
            ++i;
        }
    }
}

void
ObjectCapTable::killSubtree(uint32_t id)
{
    // Kill by scanning parent pointers rather than walking children
    // lists: a scrambled child link can then never hide a descendant
    // from revocation (fail-safe in the delete-authority direction).
    std::vector<uint32_t> frontier{id};
    while (!frontier.empty()) {
        const uint32_t victim = frontier.back();
        frontier.pop_back();
        if (victim >= entries_.size()) {
            continue;
        }
        Entry &e = entries_[victim];
        if (e.alive) {
            e.alive = false;
            resealCanary(victim);
            if (victim != id) {
                descendantsRevoked++;
            }
        }
        for (uint32_t i = 0; i < entries_.size(); ++i) {
            if (entries_[i].parent == victim && entries_[i].alive) {
                frontier.push_back(i);
            }
        }
    }
    guest_.chargeExecution(8);
}

uint32_t
ObjectCapTable::entryFor(const Capability &token, CapResult *why)
{
    processDueRevocations();
    const Capability record = tokens_.unseal(key_, token);
    if (!record.tag()) {
        invalidTokensRefused++;
        *why = CapResult::InvalidCap;
        return kNoParent;
    }
    uint32_t magic = 0;
    uint32_t id = 0;
    if (guest_.tryLoadWord(record, record.base() + 0, &magic) !=
            sim::TrapCause::None ||
        guest_.tryLoadWord(record, record.base() + 4, &id) !=
            sim::TrapCause::None ||
        magic != kRecordMagic || id >= entries_.size() ||
        entries_[id].reclaimed) {
        invalidTokensRefused++;
        *why = CapResult::InvalidCap;
        return kNoParent;
    }
    Entry &e = entries_[id];
    if (injector_ != nullptr) {
        uint32_t pattern = 0;
        if (injector_->capTableTouched(&pattern)) {
            scramble(e, pattern);
        }
    }
    if (e.canary != canaryOf(e, id)) {
        // Corruption detected on use: refuse typed and delete the
        // authority — the entry and everything derived from it — so a
        // scrambled table can lose capabilities but never grant them.
        corruptEntriesRefused++;
        killSubtree(id);
        e.alive = false;
        resealCanary(id);
        *why = CapResult::InvalidCap;
        return kNoParent;
    }
    if (!e.alive) {
        staleTokensRefused++;
        *why = CapResult::Revoked;
        return kNoParent;
    }
    *why = CapResult::Ok;
    return id;
}

uint32_t
ObjectCapTable::idOf(const Capability &token)
{
    const Capability record = tokens_.unseal(key_, token);
    if (!record.tag()) {
        return kNoParent;
    }
    uint32_t magic = 0;
    uint32_t id = 0;
    if (guest_.tryLoadWord(record, record.base() + 0, &magic) !=
            sim::TrapCause::None ||
        guest_.tryLoadWord(record, record.base() + 4, &id) !=
            sim::TrapCause::None ||
        magic != kRecordMagic || id >= entries_.size()) {
        return kNoParent;
    }
    return id;
}

Capability
ObjectCapTable::commit(Entry proto, Counter &counter)
{
    const uint32_t id = static_cast<uint32_t>(entries_.size());
    const Capability record = allocator_.malloc(kRecordSize);
    if (!record.tag()) {
        return Capability();
    }
    guest_.storeWord(record, record.base() + 0, kRecordMagic);
    guest_.storeWord(record, record.base() + 4, id);
    const Capability token = tokens_.seal(key_, record);
    if (!token.tag()) {
        (void)allocator_.free(record);
        return Capability();
    }
    proto.alive = true;
    proto.record = record;
    proto.token = token;
    entries_.push_back(std::move(proto));
    resealCanary(id);
    if (entries_[id].parent != kNoParent) {
        entries_[entries_[id].parent].children.push_back(id);
        resealCanary(entries_[id].parent);
    }
    counter++;
    guest_.chargeExecution(12);
    return token;
}

Capability
ObjectCapTable::mintTime(uint32_t ownerIndex, uint64_t beginSlot,
                         uint64_t endSlot)
{
    if (beginSlot >= endSlot) {
        return Capability();
    }
    Entry e;
    e.type = ObjectCapType::Time;
    e.ownerIndex = ownerIndex;
    e.begin = beginSlot;
    e.mark = beginSlot;
    e.end = endSlot;
    return commit(std::move(e), capsMinted);
}

Capability
ObjectCapTable::mintChannel(uint32_t ownerIndex,
                            const Capability &queueHandle, bool canSend,
                            bool canReceive)
{
    if (!queueHandle.tag() || (!canSend && !canReceive)) {
        return Capability();
    }
    Entry e;
    e.type = ObjectCapType::Channel;
    e.ownerIndex = ownerIndex;
    e.queue = queueHandle;
    e.canSend = canSend;
    e.canReceive = canReceive;
    return commit(std::move(e), capsMinted);
}

Capability
ObjectCapTable::mintMonitor(uint32_t ownerIndex, uint32_t targetIndex)
{
    Entry e;
    e.type = ObjectCapType::Monitor;
    e.ownerIndex = ownerIndex;
    e.target = targetIndex;
    return commit(std::move(e), capsMinted);
}

Capability
ObjectCapTable::deriveTime(const Capability &parent, uint64_t beginSlot,
                           uint64_t endSlot, CapResult *why)
{
    CapResult status = CapResult::Ok;
    const uint32_t pid = entryFor(parent, &status);
    CapResult sink;
    CapResult &out = why != nullptr ? *why : sink;
    out = status;
    if (pid == kNoParent) {
        return Capability();
    }
    Entry &p = entries_[pid];
    if (p.type != ObjectCapType::Time) {
        out = CapResult::PermViolation;
        return Capability();
    }
    // s3k cap_util: a child [b, e) is derivable iff
    // mark <= b < e <= end; deriving it advances mark to e.
    if (!(p.mark <= beginSlot && beginSlot < endSlot &&
          endSlot <= p.end)) {
        out = CapResult::BoundsViolation;
        return Capability();
    }
    Entry child;
    child.type = ObjectCapType::Time;
    child.ownerIndex = p.ownerIndex;
    child.parent = pid;
    child.begin = beginSlot;
    child.mark = beginSlot;
    child.end = endSlot;
    const Capability token = commit(std::move(child), capsDerived);
    if (!token.tag()) {
        out = CapResult::Exhausted;
        return Capability();
    }
    entries_[pid].mark = endSlot;
    resealCanary(pid);
    out = CapResult::Ok;
    return token;
}

Capability
ObjectCapTable::deriveChannel(const Capability &parent, bool canSend,
                              bool canReceive, CapResult *why)
{
    CapResult status = CapResult::Ok;
    const uint32_t pid = entryFor(parent, &status);
    CapResult sink;
    CapResult &out = why != nullptr ? *why : sink;
    out = status;
    if (pid == kNoParent) {
        return Capability();
    }
    Entry &p = entries_[pid];
    if (p.type != ObjectCapType::Channel) {
        out = CapResult::PermViolation;
        return Capability();
    }
    // Monotone: the child's permissions must be a non-empty subset.
    if ((!canSend && !canReceive) || (canSend && !p.canSend) ||
        (canReceive && !p.canReceive)) {
        out = CapResult::PermViolation;
        return Capability();
    }
    Entry child;
    child.type = ObjectCapType::Channel;
    child.ownerIndex = p.ownerIndex;
    child.parent = pid;
    child.queue = p.queue;
    child.canSend = canSend;
    child.canReceive = canReceive;
    const Capability token = commit(std::move(child), capsDerived);
    if (!token.tag()) {
        out = CapResult::Exhausted;
        return Capability();
    }
    out = CapResult::Ok;
    return token;
}

Capability
ObjectCapTable::deriveMonitor(const Capability &parent, CapResult *why)
{
    CapResult status = CapResult::Ok;
    const uint32_t pid = entryFor(parent, &status);
    CapResult sink;
    CapResult &out = why != nullptr ? *why : sink;
    out = status;
    if (pid == kNoParent) {
        return Capability();
    }
    Entry &p = entries_[pid];
    if (p.type != ObjectCapType::Monitor) {
        out = CapResult::PermViolation;
        return Capability();
    }
    Entry child;
    child.type = ObjectCapType::Monitor;
    child.ownerIndex = p.ownerIndex;
    child.parent = pid;
    child.target = p.target;
    const Capability token = commit(std::move(child), capsDerived);
    if (!token.tag()) {
        out = CapResult::Exhausted;
        return Capability();
    }
    out = CapResult::Ok;
    return token;
}

CapResult
ObjectCapTable::transfer(const Capability &token, uint32_t newOwnerIndex)
{
    CapResult status = CapResult::Ok;
    const uint32_t id = entryFor(token, &status);
    if (id == kNoParent) {
        return status;
    }
    entries_[id].ownerIndex = newOwnerIndex;
    resealCanary(id);
    capsTransferred++;
    guest_.chargeExecution(4);
    return CapResult::Ok;
}

CapResult
ObjectCapTable::revoke(const Capability &token)
{
    CapResult status = CapResult::Ok;
    const uint32_t id = entryFor(token, &status);
    if (id == kNoParent) {
        // Idempotent: revoking an already-revoked capability is a
        // no-op success; anything else stays a typed refusal.
        return status == CapResult::Revoked ? CapResult::Ok : status;
    }
    killSubtree(id);
    revocations++;
    return CapResult::Ok;
}

CapResult
ObjectCapTable::scheduleRevoke(const Capability &token, uint64_t atCycle)
{
    CapResult status = CapResult::Ok;
    const uint32_t id = entryFor(token, &status);
    if (id == kNoParent) {
        return status;
    }
    pending_.push_back({atCycle, id});
    return CapResult::Ok;
}

uint32_t
ObjectCapTable::reclaim()
{
    processDueRevocations();
    uint32_t freed = 0;
    for (auto &e : entries_) {
        if (e.alive || e.reclaimed) {
            continue;
        }
        if (!tokens_.destroy(key_, e.token)) {
            panic("object-cap table: destroying a dead token failed");
        }
        if (allocator_.free(e.record) !=
            alloc::HeapAllocator::FreeResult::Ok) {
            panic("object-cap table: freeing a dead record failed");
        }
        e.record = Capability();
        e.token = Capability();
        e.reclaimed = true;
        freed++;
    }
    return freed;
}

CapResult
ObjectCapTable::checkTime(const Capability &token, uint64_t slot)
{
    CapResult status = CapResult::Ok;
    const uint32_t id = entryFor(token, &status);
    if (id == kNoParent) {
        return status;
    }
    const Entry &e = entries_[id];
    if (e.type != ObjectCapType::Time) {
        return CapResult::PermViolation;
    }
    if (slot < e.begin || slot >= e.end) {
        return CapResult::BoundsViolation;
    }
    return CapResult::Ok;
}

ChannelGrant
ObjectCapTable::checkChannel(const Capability &token)
{
    ChannelGrant grant;
    CapResult status = CapResult::Ok;
    const uint32_t id = entryFor(token, &status);
    if (id == kNoParent) {
        grant.status = status;
        return grant;
    }
    const Entry &e = entries_[id];
    if (e.type != ObjectCapType::Channel) {
        grant.status = CapResult::PermViolation;
        return grant;
    }
    grant.status = CapResult::Ok;
    grant.queue = e.queue;
    grant.canSend = e.canSend;
    grant.canReceive = e.canReceive;
    return grant;
}

CapResult
ObjectCapTable::checkMonitor(const Capability &token,
                             uint32_t targetIndex)
{
    CapResult status = CapResult::Ok;
    const uint32_t id = entryFor(token, &status);
    if (id == kNoParent) {
        return status;
    }
    const Entry &e = entries_[id];
    if (e.type != ObjectCapType::Monitor) {
        return CapResult::PermViolation;
    }
    if (e.target != targetIndex) {
        return CapResult::PermViolation;
    }
    return CapResult::Ok;
}

bool
ObjectCapTable::aliveAt(uint32_t id) const
{
    return id < entries_.size() && entries_[id].alive;
}

ObjectCapType
ObjectCapTable::typeAt(uint32_t id) const
{
    return entries_.at(id).type;
}

uint32_t
ObjectCapTable::parentOf(uint32_t id) const
{
    return entries_.at(id).parent;
}

uint32_t
ObjectCapTable::ownerOf(uint32_t id) const
{
    return entries_.at(id).ownerIndex;
}

void
ObjectCapTable::timeBoundsAt(uint32_t id, uint64_t *begin,
                             uint64_t *mark, uint64_t *end) const
{
    const Entry &e = entries_.at(id);
    *begin = e.begin;
    *mark = e.mark;
    *end = e.end;
}

bool
ObjectCapTable::subtreeDead(uint32_t id) const
{
    for (uint32_t i = 0; i < entries_.size(); ++i) {
        if (!entries_[i].alive) {
            continue;
        }
        // Walk ancestors of the live node; bounded by the table size
        // so even a corrupted parent chain cannot loop forever.
        uint32_t cursor = i;
        for (size_t steps = 0;
             cursor != kNoParent && steps <= entries_.size(); ++steps) {
            if (cursor == id) {
                return false;
            }
            cursor = cursor < entries_.size() ? entries_[cursor].parent
                                              : kNoParent;
        }
    }
    return true;
}

} // namespace cheriot::rtos
