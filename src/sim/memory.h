/**
 * @file
 * Physical word-addressed memory with memory-mapped devices.
 *
 * The memory is an array of 32-bit words (there is deliberately no
 * byte access path — Section 4.1 of the paper). A small MMIO window at
 * the top of the physical space hosts the console and the external
 * interrupt-prioritization logic the paper's global interrupt handler
 * queries ("the global interrupt handler queries any external
 * prioritization logic to determine which device was requesting
 * service").
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace mips::sim {

/** Default physical memory size in words (4 MB). This is address
 *  space, not a resident cost: PhysMemory maps it demand-zero, so a
 *  machine is resident only in the pages its run actually touches. */
constexpr uint32_t kDefaultPhysWords = 1u << 20;

/** First word of the MMIO window (within the default size). */
constexpr uint32_t kMmioBase = 0x000ff000;

/** Words in the MMIO window. */
constexpr uint32_t kMmioWindowWords = 16;

/** MMIO registers (word offsets from kMmioBase). */
enum class MmioReg : uint32_t
{
    CONSOLE_OUT = 0,   ///< write: emit low byte to the console
    CONSOLE_STATUS = 1,///< read: 1 (always ready)
    INT_SOURCE = 2,    ///< read: id of highest-priority pending device
    INT_ACK = 3,       ///< write: acknowledge (clear) device id
    CYCLES_LO = 4,     ///< read: low word of the cycle counter
    MAP_SVA = 5,       ///< write: latch system virtual address
    MAP_INSTALL = 6,   ///< write frame number: install page for MAP_SVA
    MAP_EVICT = 7,     ///< write anything: evict the MAP_SVA page
};

/**
 * Physical memory plus devices. Word granularity only.
 *
 * The words are one anonymous private mapping: the kernel hands out a
 * zero page on first touch, so building a memory costs the same
 * whatever its size, a fresh memory reads all zeros, and a run is
 * resident only in the pages it reaches. One PROT_NONE guard page
 * follows the words, which end flush against it, so an unchecked
 * ram()/ramWrite() one word past the end faults (AddressSanitizer
 * does not instrument raw mappings). A failed mapping panics with its
 * size. Non-copyable: it owns the mapping, and the CPU holds a
 * reference to it and shares its tag array with it.
 */
class PhysMemory
{
  public:
    explicit PhysMemory(uint32_t size_words = kDefaultPhysWords);
    ~PhysMemory();

    PhysMemory(const PhysMemory &) = delete;
    PhysMemory &operator=(const PhysMemory &) = delete;

    /** Number of addressable words. */
    uint32_t size() const { return size_words_; }

    /** True if `addr` is a valid physical word address. */
    bool valid(uint32_t addr) const { return addr < size_words_; }

    /** True if `addr` falls in the MMIO window. */
    bool
    isMmio(uint32_t addr) const
    {
        // Unsigned wrap: one compare for [kMmioBase, kMmioBase + 16).
        return addr - kMmioBase < kMmioWindowWords && addr < size_words_;
    }

    /** Read a word; MMIO reads consult the devices. On the CPU's
     *  critical path — the common (RAM) case is fully inline. */
    uint32_t
    read(uint32_t addr)
    {
        if (addr >= size_words_)
            outOfRange("read", addr);
        if (addr - kMmioBase < kMmioWindowWords)
            return readMmio(addr);
        return words_[addr];
    }

    /** Write a word; MMIO writes drive the devices. On the CPU's
     *  critical path — the common (RAM) case is fully inline. */
    void
    write(uint32_t addr, uint32_t value)
    {
        if (addr >= size_words_)
            outOfRange("write", addr);
        if (addr - kMmioBase < kMmioWindowWords) {
            writeMmio(addr, value);
            return;
        }
        ramWrite(addr, value);
    }

    /**
     * Unchecked RAM word access for callers that have already proven
     * `addr` in range and outside the MMIO window (the CPU fast path:
     * the translate step bounds-checks and the MMIO test is explicit
     * there). ramWrite keeps the predecode tags coherent like write().
     */
    uint32_t ram(uint32_t addr) const { return words_[addr]; }

    void
    ramWrite(uint32_t addr, uint32_t value)
    {
        // Value-aware invalidation: a store that leaves the word's
        // contents unchanged cannot stale a predecoded entry, so e.g.
        // reloading the same program image keeps the cache warm.
        uint32_t old = words_[addr];
        words_[addr] = value;
        if (old != value)
            notifyWrite(addr);
    }

    /** Raw (device-free) access for loaders and tests. */
    uint32_t peek(uint32_t addr) const;
    void poke(uint32_t addr, uint32_t value);

    /** Copy a program image into memory at `base`. */
    void loadImage(uint32_t base, const std::vector<uint32_t> &image);

    // --- Devices -------------------------------------------------------

    /** Everything written to CONSOLE_OUT so far. */
    const std::string &consoleOutput() const { return console_; }

    /** Assert a device interrupt request (device ids 1..31). */
    void raiseDevice(uint32_t device_id);

    /** True if any device request is pending (drives the single
     *  interrupt line onto the chip). */
    bool interruptPending() const { return pending_devices_ != 0; }

    /** Highest-priority (lowest id) pending device, 0 if none. */
    uint32_t highestPendingDevice() const;

    /** Cycle-counter value surfaced through CYCLES_LO (set by hosts
     *  without a live CPU attached; the CPU registers a source below). */
    void setCycleCounter(uint64_t cycles) { cycles_ = cycles; }

    /** Register a live counter read on demand by CYCLES_LO, so the CPU
     *  does not have to push the count into the device every cycle.
     *  Pass nullptr to detach (falls back to setCycleCounter's value). */
    void setCycleSource(const uint64_t *source) { cycle_source_ = source; }

    /**
     * Hook for the MAP_* registers: the exterior mapping unit sits on
     * the bus ("an off-chip page map", Section 3.1), so the OS
     * programs it through stores. Machine wires this to MappingUnit.
     * Called as hook(install_or_evict, sva, frame).
     */
    void
    setMapHook(std::function<void(bool, uint32_t, uint32_t)> hook)
    {
        map_hook_ = std::move(hook);
    }

    // --- Write observation ---------------------------------------------

    /**
     * Predecode-cache coherence: the CPU shares its direct-mapped tag
     * array so that every store that changes memory contents — CPU
     * stores, host poke()/loadImage(), any bus write — invalidates a
     * stale predecoded entry *in place*, with no indirect call on the
     * store path. `mask` must be (size of tag array - 1), a power of
     * two minus one; a store to word `addr` clears tags[addr & mask]
     * when it equals addr. Pass tags = nullptr to detach.
     */
    void
    attachDecodeTags(uint32_t *tags, uint32_t mask, uint32_t invalid)
    {
        decode_tags_ = tags;
        decode_tags_mask_ = mask;
        decode_tags_invalid_ = invalid;
    }

    /** Predecoded entries actually invalidated by writes (stores that
     *  hit a live tag; the common store misses every tag and costs
     *  nothing extra). */
    uint64_t decodeInvalidations() const { return decode_invalidations_; }

  private:
    /** Out-of-line slow paths for the inline read()/write() above. */
    [[noreturn]] void outOfRange(const char *op, uint32_t addr) const;
    uint32_t readMmio(uint32_t addr);
    void writeMmio(uint32_t addr, uint32_t value);

    void
    notifyWrite(uint32_t addr)
    {
        // Drop the predecoded entry covering this word, if any. Only
        // the tag is cleared — the CPU may be mid-step holding a
        // pointer into the matching payload.
        if (decode_tags_ != nullptr) {
            uint32_t idx = addr & decode_tags_mask_;
            if (decode_tags_[idx] == addr) {
                decode_tags_[idx] = decode_tags_invalid_;
                ++decode_invalidations_;
            }
        }
    }

    uint32_t size_words_ = 0;
    void *mapping_ = nullptr;  ///< words plus the guard page
    size_t mapping_bytes_ = 0;
    uint32_t *words_ = nullptr; ///< inside mapping_, ending at the guard
    std::string console_;
    uint32_t pending_devices_ = 0; ///< bitmask of requesting devices
    uint64_t cycles_ = 0;
    const uint64_t *cycle_source_ = nullptr;
    uint32_t map_sva_ = 0;
    std::function<void(bool, uint32_t, uint32_t)> map_hook_;
    uint32_t *decode_tags_ = nullptr;
    uint32_t decode_tags_mask_ = 0;
    uint32_t decode_tags_invalid_ = 0;
    uint64_t decode_invalidations_ = 0;
};

} // namespace mips::sim
