#include "rtos/token_library.h"

#include "util/log.h"

namespace cheriot::rtos
{

using cap::Capability;

namespace
{
/** Discriminator words so keys and tokens cannot be confused. */
constexpr uint32_t kKindKey = 0x6b657931;   // 'key1'
constexpr uint32_t kKindToken = 0x746f6b31; // 'tok1'
constexpr uint32_t kKindOffset = 4;
} // namespace

TokenLibrary::TokenLibrary(GuestContext &guest,
                           alloc::HeapAllocator &allocator,
                           Capability sealer)
    : guest_(guest), allocator_(allocator), sealer_(sealer)
{
    if (!sealer.tag() || !sealer.perms().has(cap::PermSeal) ||
        !sealer.perms().has(cap::PermUnseal)) {
        fatal("token library needs seal+unseal authority");
    }
}

Capability
TokenLibrary::createKey()
{
    const Capability box = allocator_.malloc(kBoxSize);
    if (!box.tag()) {
        return Capability();
    }
    guest_.storeWord(box, box.base() + kKeyIdOffset, nextKeyId_++);
    guest_.storeWord(box, box.base() + kKindOffset, kKindKey);
    const auto sealed = cap::seal(box, sealer_);
    if (!sealed) {
        panic("token library: sealing a fresh key failed");
    }
    guest_.chargeExecution(8);
    return *sealed;
}

bool
TokenLibrary::keyIdOf(const Capability &key, uint32_t *keyId)
{
    const auto unsealed = cap::unseal(key, sealer_);
    if (!unsealed) {
        return false;
    }
    guest_.chargeExecution(4);
    if (guest_.loadWord(*unsealed, unsealed->base() + kKindOffset) !=
        kKindKey) {
        return false;
    }
    *keyId = guest_.loadWord(*unsealed, unsealed->base() + kKeyIdOffset);
    return true;
}

Capability
TokenLibrary::seal(const Capability &key, const Capability &payload)
{
    uint32_t keyId = 0;
    if (!keyIdOf(key, &keyId) || !payload.tag()) {
        return Capability();
    }
    const Capability box = allocator_.malloc(kBoxSize);
    if (!box.tag()) {
        return Capability();
    }
    guest_.storeWord(box, box.base() + kKeyIdOffset, keyId);
    guest_.storeWord(box, box.base() + kKindOffset, kKindToken);
    // Local payloads must not be capturable in a (heap) box: the
    // store-local check enforces the §2.6 information-flow rule.
    if (guest_.tryStoreCap(box, box.base() + kPayloadOffset, payload) !=
        sim::TrapCause::None) {
        (void)allocator_.free(box);
        return Capability();
    }
    const auto sealed = cap::seal(box, sealer_);
    if (!sealed) {
        panic("token library: sealing a token box failed");
    }
    guest_.chargeExecution(8);
    return *sealed;
}

Capability
TokenLibrary::unseal(const Capability &key, const Capability &token)
{
    uint32_t keyId = 0;
    if (!keyIdOf(key, &keyId)) {
        return Capability();
    }
    const auto box = cap::unseal(token, sealer_);
    if (!box) {
        return Capability();
    }
    guest_.chargeExecution(6);
    if (guest_.loadWord(*box, box->base() + kKindOffset) != kKindToken ||
        guest_.loadWord(*box, box->base() + kKeyIdOffset) != keyId) {
        return Capability();
    }
    return guest_.loadCap(*box, box->base() + kPayloadOffset);
}

bool
TokenLibrary::destroy(const Capability &key, const Capability &token)
{
    uint32_t keyId = 0;
    if (!keyIdOf(key, &keyId)) {
        return false;
    }
    const auto box = cap::unseal(token, sealer_);
    if (!box) {
        return false;
    }
    if (guest_.loadWord(*box, box->base() + kKindOffset) != kKindToken ||
        guest_.loadWord(*box, box->base() + kKeyIdOffset) != keyId) {
        return false;
    }
    return allocator_.free(*box) == alloc::HeapAllocator::FreeResult::Ok;
}

} // namespace cheriot::rtos
