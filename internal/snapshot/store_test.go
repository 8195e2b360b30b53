package snapshot

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"
)

func TestStoreRoundTrip(t *testing.T) {
	s := NewStore(0)
	blob := []byte("GSIMSNAP pretend checkpoint bytes")
	key := s.Put(blob)

	sum := sha256.Sum256(blob)
	if want := hex.EncodeToString(sum[:]); key != want {
		t.Fatalf("Put key = %s, want sha256 %s", key, want)
	}
	got, err := s.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, blob) {
		t.Fatalf("Get returned %q, want %q", got, blob)
	}

	// The store must hold its own copy: mutating either the original slice
	// or a returned one must not affect later reads.
	blob[0] ^= 0xff
	got[1] ^= 0xff
	again, err := s.Get(key)
	if err != nil {
		t.Fatalf("Get after caller mutation: %v", err)
	}
	if again[0] != 'G' || again[1] != 'S' {
		t.Fatal("store shares memory with caller slices")
	}

	if _, err := s.Get(strings.Repeat("0", 64)); err == nil {
		t.Fatal("Get of missing key succeeded")
	}
}

func TestStoreDedup(t *testing.T) {
	s := NewStore(0)
	blob := bytes.Repeat([]byte("lane"), 1024)
	k1 := s.Put(blob)
	k2 := s.Put(append([]byte(nil), blob...)) // equal bytes, distinct slice
	if k1 != k2 {
		t.Fatalf("identical blobs got distinct keys %s vs %s", k1, k2)
	}
	used, _, blobs, _ := s.Stats()
	if blobs != 1 {
		t.Fatalf("store holds %d blobs after duplicate Put, want 1", blobs)
	}
	if used != int64(len(blob)) {
		t.Fatalf("store used %d bytes, want %d (one copy)", used, len(blob))
	}
}

func TestStoreEviction(t *testing.T) {
	// Budget fits exactly two 100-byte blobs.
	s := NewStore(200)
	mk := func(i int) []byte {
		b := bytes.Repeat([]byte{byte(i)}, 100)
		b[0] = byte(i) // distinct content per i even for i=0
		return b
	}
	k0 := s.Put(mk(0))
	k1 := s.Put(mk(1))
	// Touch k0 so k1 is the LRU victim.
	if _, err := s.Get(k0); err != nil {
		t.Fatal(err)
	}
	k2 := s.Put(mk(2))

	if _, err := s.Get(k1); err == nil {
		t.Fatal("LRU blob survived eviction under budget pressure")
	}
	for _, k := range []string{k0, k2} {
		if _, err := s.Get(k); err != nil {
			t.Fatalf("recently used blob %s was evicted: %v", k, err)
		}
	}
	used, budget, blobs, evictions := s.Stats()
	if used > budget {
		t.Fatalf("store over budget: %d > %d", used, budget)
	}
	if blobs != 2 || evictions != 1 {
		t.Fatalf("blobs=%d evictions=%d, want 2 and 1", blobs, evictions)
	}
}

func TestStorePinBlocksEviction(t *testing.T) {
	s := NewStore(200)
	pinned := s.Put(bytes.Repeat([]byte{1}, 100))
	if err := s.Pin(pinned); err != nil {
		t.Fatal(err)
	}
	// Flood the store; the pinned blob is always the LRU candidate but must
	// survive every round.
	for i := 2; i < 10; i++ {
		s.Put(bytes.Repeat([]byte{byte(i)}, 100))
	}
	if _, err := s.Get(pinned); err != nil {
		t.Fatalf("pinned blob was evicted: %v", err)
	}
	used, budget, _, _ := s.Stats()
	if used > budget {
		t.Fatalf("store over budget with evictable blobs present: %d > %d", used, budget)
	}
	if err := s.Pin("feedface"); err == nil {
		t.Fatal("Pin of missing blob succeeded")
	}
}

func TestStorePinnedBeatsBudget(t *testing.T) {
	// Two pinned 100-byte blobs under a 150-byte budget: the store runs over
	// budget rather than dropping a blob a live migration depends on. The
	// first Unpin reclaims eagerly.
	s := NewStore(150)
	kA := s.PutPinned(bytes.Repeat([]byte{1}, 100))
	kB := s.PutPinned(bytes.Repeat([]byte{2}, 100))
	used, budget, blobs, _ := s.Stats()
	if blobs != 2 {
		t.Fatalf("pinned blob evicted: %d blobs, want 2", blobs)
	}
	if used <= budget {
		t.Fatalf("test setup broken: used %d should exceed budget %d", used, budget)
	}
	s.Unpin(kA)
	if _, err := s.Get(kA); err == nil {
		t.Fatal("unpinned blob survived while store over budget")
	}
	if _, err := s.Get(kB); err != nil {
		t.Fatalf("still-pinned blob lost: %v", err)
	}
	used, budget, _, _ = s.Stats()
	if used > budget {
		t.Fatalf("store over budget after reclaim: %d > %d", used, budget)
	}
	s.Unpin(kB)
}

func TestStorePutPinnedDedupNestsPins(t *testing.T) {
	s := NewStore(150)
	blob := bytes.Repeat([]byte{7}, 100)
	k1 := s.PutPinned(blob)
	k2 := s.PutPinned(blob) // dedup — must add a second pin
	if k1 != k2 {
		t.Fatalf("dedup broke: %s vs %s", k1, k2)
	}
	s.Unpin(k1)
	// One pin remains; flooding must not evict it.
	s.Put(bytes.Repeat([]byte{8}, 100))
	if _, err := s.Get(k1); err != nil {
		t.Fatalf("blob with remaining pin evicted: %v", err)
	}
	s.Unpin(k1)
}

func TestStoreRefusesHashMismatch(t *testing.T) {
	s := NewStore(0)
	blob := []byte("pristine checkpoint")
	key := s.PutPinned(blob)

	// Corrupt the stored bytes behind the store's back: memory corruption
	// between Put and Get.
	if !s.Damage(key) {
		t.Fatal("Damage missed a stored key")
	}
	if _, err := s.Get(key); err == nil {
		t.Fatal("Get returned a blob whose bytes no longer match its content key")
	} else if !strings.Contains(err.Error(), "content verification") {
		t.Fatalf("unexpected error: %v", err)
	}

	// The refused entry is gone, pin included, so the same bytes put again
	// are stored afresh instead of deduplicating onto the rotted copy.
	if s.PinnedBytes() != 0 {
		t.Fatalf("a refused blob still pins %d bytes", s.PinnedBytes())
	}
	s.Unpin(key) // the holder's release finds nothing to release
	if again := s.Put(blob); again != key {
		t.Fatalf("re-put under key %s, want %s", again, key)
	}
	if got, err := s.Get(key); err != nil || string(got) != string(blob) {
		t.Fatalf("re-put blob reads %q, %v", got, err)
	}
}

func TestStoreDeleteIgnoresPins(t *testing.T) {
	s := NewStore(0)
	key := s.Put([]byte("doomed"))
	if err := s.Pin(key); err != nil {
		t.Fatal(err)
	}
	s.Delete(key)
	if _, err := s.Get(key); err == nil {
		t.Fatal("blob readable after Delete")
	}
	used, _, blobs, _ := s.Stats()
	if used != 0 || blobs != 0 {
		t.Fatalf("used=%d blobs=%d after Delete, want 0/0", used, blobs)
	}
}

func TestStoreConcurrent(t *testing.T) {
	s := NewStore(10_000)
	done := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func(w int) {
			var err error
			for i := 0; i < 200; i++ {
				blob := []byte(fmt.Sprintf("worker %d blob %d", w, i%10))
				key := s.Put(blob)
				if got, e := s.Get(key); e == nil && !bytes.Equal(got, blob) {
					err = fmt.Errorf("worker %d read wrong bytes", w)
				}
				_ = s.Pin(key)
				s.Unpin(key)
			}
			done <- err
		}(w)
	}
	for w := 0; w < 8; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
