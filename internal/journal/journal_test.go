package journal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func openT(t *testing.T, dir string, opts Options) (*Journal, Recovery) {
	t.Helper()
	opts.Dir = dir
	j, rec, err := Open(opts)
	if err != nil {
		t.Fatalf("Open(%q): %v", dir, err)
	}
	return j, rec
}

func appendWait(t *testing.T, j *Journal, payload string) {
	t.Helper()
	if err := j.Append([]byte(payload)).Wait(); err != nil {
		t.Fatalf("Append(%q): %v", payload, err)
	}
}

func records(rec Recovery) []string {
	out := make([]string, 0, len(rec.Records))
	for _, r := range rec.Records {
		out = append(out, string(r))
	}
	return out
}

func wantRecords(t *testing.T, rec Recovery, want ...string) {
	t.Helper()
	got := records(rec)
	if len(got) != len(want) {
		t.Fatalf("recovered %d records %q, want %d %q", len(got), got, len(want), want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func listDir(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, rec := openT(t, dir, Options{Fsync: true})
	if rec.Snapshot != nil || len(rec.Records) != 0 {
		t.Fatalf("fresh dir recovered state: %+v", rec)
	}
	for i := 0; i < 10; i++ {
		appendWait(t, j, fmt.Sprintf("rec-%d", i))
	}
	st := j.Stats()
	if st.Appends != 10 {
		t.Fatalf("Appends = %d, want 10", st.Appends)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	j2, rec2 := openT(t, dir, Options{Fsync: true})
	defer j2.Close()
	if rec2.Snapshot != nil {
		t.Fatalf("unexpected snapshot: %q", rec2.Snapshot)
	}
	wantRecords(t, rec2, "rec-0", "rec-1", "rec-2", "rec-3", "rec-4", "rec-5", "rec-6", "rec-7", "rec-8", "rec-9")
	if rec2.Truncated != 0 {
		t.Fatalf("Truncated = %d, want 0", rec2.Truncated)
	}
	// The reopened journal must be appendable.
	appendWait(t, j2, "after")
}

func TestGroupCommitBatching(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir, Options{Fsync: true})
	defer j.Close()

	// Enqueue a burst without waiting: the single writer drains them in
	// few batches, so every ticket resolves and Fsyncs stays <= Batches.
	const n = 200
	tickets := make([]*Ticket, n)
	for i := range tickets {
		tickets[i] = j.Append([]byte(fmt.Sprintf("burst-%d", i)))
	}
	for i, tk := range tickets {
		if err := tk.Wait(); err != nil {
			t.Fatalf("ticket %d: %v", i, err)
		}
	}
	st := j.Stats()
	if st.Appends != n {
		t.Fatalf("Appends = %d, want %d", st.Appends, n)
	}
	if st.Batches == 0 || st.Batches > n {
		t.Fatalf("Batches = %d, want in [1, %d]", st.Batches, n)
	}
	if st.Fsyncs > st.Batches+st.Rotations {
		t.Fatalf("Fsyncs = %d > Batches+Rotations = %d", st.Fsyncs, st.Batches+st.Rotations)
	}
}

func TestConcurrentAppend(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir, Options{Fsync: true})
	const workers, per = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := j.Append([]byte(fmt.Sprintf("w%d-%d", w, i))).Wait(); err != nil {
					t.Errorf("w%d append %d: %v", w, i, err)
				}
			}
		}(w)
	}
	wg.Wait()
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	_, rec := openT(t, dir, Options{})
	if len(rec.Records) != workers*per {
		t.Fatalf("recovered %d records, want %d", len(rec.Records), workers*per)
	}
}

func TestRotation(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir, Options{SegmentBytes: 64, Fsync: true})
	for i := 0; i < 20; i++ {
		appendWait(t, j, fmt.Sprintf("rotate-me-%02d", i))
	}
	st := j.Stats()
	if st.Rotations == 0 {
		t.Fatalf("no rotations after 20 appends with 64-byte segments; stats %+v", st)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	segs := 0
	for _, name := range listDir(t, dir) {
		if _, ok := parseNum(name, "seg-", ".wal"); ok {
			segs++
		}
	}
	if segs < 2 {
		t.Fatalf("want >= 2 segment files, got %v", listDir(t, dir))
	}
	j2, rec := openT(t, dir, Options{SegmentBytes: 64})
	defer j2.Close()
	if len(rec.Records) != 20 || rec.Segments != segs {
		t.Fatalf("recovered %d records over %d segments, want 20 over %d", len(rec.Records), rec.Segments, segs)
	}
}

func TestSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir, Options{Fsync: true})
	appendWait(t, j, "before-1")
	appendWait(t, j, "before-2")
	if err := j.Snapshot([]byte("image")).Wait(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	appendWait(t, j, "after-1")
	appendWait(t, j, "after-2")
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Pre-snapshot segments must be gone.
	for _, name := range listDir(t, dir) {
		if name == "seg-00000001.wal" {
			t.Fatalf("pre-snapshot segment survived compaction: %v", listDir(t, dir))
		}
	}

	j2, rec := openT(t, dir, Options{Fsync: true})
	defer j2.Close()
	if string(rec.Snapshot) != "image" {
		t.Fatalf("Snapshot = %q, want %q", rec.Snapshot, "image")
	}
	wantRecords(t, rec, "after-1", "after-2")
}

func TestSecondSnapshotSupersedes(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir, Options{Fsync: true})
	appendWait(t, j, "a")
	if err := j.Snapshot([]byte("one")).Wait(); err != nil {
		t.Fatal(err)
	}
	appendWait(t, j, "b")
	if err := j.Snapshot([]byte("two")).Wait(); err != nil {
		t.Fatal(err)
	}
	appendWait(t, j, "c")
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec := openT(t, dir, Options{})
	if string(rec.Snapshot) != "two" {
		t.Fatalf("Snapshot = %q, want %q", rec.Snapshot, "two")
	}
	wantRecords(t, rec, "c")
	snaps := 0
	for _, name := range listDir(t, dir) {
		if _, ok := parseNum(name, "snap-", ".snap"); ok {
			snaps++
		}
	}
	if snaps != 1 {
		t.Fatalf("want exactly 1 snapshot file, dir: %v", listDir(t, dir))
	}
}

// TestOversizedSnapshotRefused: a snapshot image one byte over the frame
// bound the reader enforces is refused at enqueue — before the rotation
// and compaction that used to delete the segments it could not replace —
// and the journal stays writable. A reopen recovers the earlier snapshot
// and every record around the refused one. (Oversized and empty appends,
// which the reader would also reject, are refused the same way.)
func TestOversizedSnapshotRefused(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir, Options{Fsync: true})
	appendWait(t, j, "a")
	if err := j.Snapshot([]byte("image")).Wait(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	appendWait(t, j, "b")
	before := listDir(t, dir)
	huge := make([]byte, maxFrameBytes+1)
	if err := j.Snapshot(huge).Wait(); !errors.Is(err, ErrPayloadSize) {
		t.Fatalf("oversized Snapshot = %v, want ErrPayloadSize", err)
	}
	if err := j.Append(huge).Wait(); !errors.Is(err, ErrPayloadSize) {
		t.Fatalf("oversized Append = %v, want ErrPayloadSize", err)
	}
	if err := j.Append(nil).Wait(); !errors.Is(err, ErrPayloadSize) {
		t.Fatalf("empty Append = %v, want ErrPayloadSize", err)
	}
	if after := listDir(t, dir); fmt.Sprint(after) != fmt.Sprint(before) {
		t.Fatalf("refused snapshot touched the directory: %v -> %v", before, after)
	}
	appendWait(t, j, "c") // not poisoned
	if st := j.Stats(); st.Snapshots != 1 {
		t.Fatalf("stats count %d snapshots, want only the accepted one", st.Snapshots)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	_, rec := openT(t, dir, Options{})
	if string(rec.Snapshot) != "image" {
		t.Fatalf("Snapshot = %q, want %q", rec.Snapshot, "image")
	}
	wantRecords(t, rec, "b", "c")
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir, Options{Fsync: true})
	appendWait(t, j, "good-1")
	appendWait(t, j, "good-2")
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a torn write: a frame header promising more bytes than exist.
	seg := filepath.Join(dir, "seg-00000001.wal")
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	var torn [8]byte
	binary.LittleEndian.PutUint32(torn[0:4], 1000) // length far past EOF
	binary.LittleEndian.PutUint32(torn[4:8], 0xdeadbeef)
	if _, err := f.Write(torn[:]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, rec := openT(t, dir, Options{Fsync: true})
	wantRecords(t, rec, "good-1", "good-2")
	if rec.Truncated != 8 {
		t.Fatalf("Truncated = %d, want 8", rec.Truncated)
	}
	// The torn bytes are physically gone and appends continue cleanly.
	appendWait(t, j2, "good-3")
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec3 := openT(t, dir, Options{})
	wantRecords(t, rec3, "good-1", "good-2", "good-3")
	if rec3.Truncated != 0 {
		t.Fatalf("second recovery still truncating: %d", rec3.Truncated)
	}
}

func TestBitFlipStopsReplay(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir, Options{SegmentBytes: 48, Fsync: true})
	for i := 0; i < 8; i++ {
		appendWait(t, j, fmt.Sprintf("frame-%d", i))
	}
	if j.Stats().Rotations == 0 {
		t.Fatal("test needs multiple segments")
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip one payload byte in the first segment: replay must stop there and
	// every later segment must be discarded, not replayed over the gap.
	seg := filepath.Join(dir, "seg-00000001.wal")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[frameHeader] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	j2, rec := openT(t, dir, Options{})
	defer j2.Close()
	if len(rec.Records) != 0 {
		t.Fatalf("records resurrected past corruption: %q", records(rec))
	}
	if rec.Truncated == 0 {
		t.Fatal("Truncated = 0 after bit flip")
	}
	for _, name := range listDir(t, dir) {
		if n, ok := parseNum(name, "seg-", ".wal"); ok && n > 1 {
			t.Fatalf("segment past corruption survived: %v", listDir(t, dir))
		}
	}
}

func TestCorruptSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir, Options{Fsync: true})
	appendWait(t, j, "pre")
	if err := j.Snapshot([]byte("image")).Wait(); err != nil {
		t.Fatal(err)
	}
	appendWait(t, j, "post")
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	var snap string
	for _, name := range listDir(t, dir) {
		if _, ok := parseNum(name, "snap-", ".snap"); ok {
			snap = filepath.Join(dir, name)
		}
	}
	data, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(snap, data, 0o644); err != nil {
		t.Fatal(err)
	}

	// The snapshot is unreadable, but the post-snapshot segment run is
	// intact: recovery degrades to "no snapshot, replay what remains"
	// without panicking or inventing state.
	j2, rec := openT(t, dir, Options{})
	defer j2.Close()
	if rec.Snapshot != nil {
		t.Fatalf("corrupt snapshot returned: %q", rec.Snapshot)
	}
	wantRecords(t, rec, "post")
}

func TestMissingBoundarySegmentDiscardsRun(t *testing.T) {
	dir := t.TempDir()
	// snap-2 exists but seg-2 is missing: seg-3's records assume state in
	// the deleted boundary segment, so they must not replay.
	writeSnap := func(n uint64, payload string) {
		path := filepath.Join(dir, fmt.Sprintf("snap-%08d.snap", n))
		if err := os.WriteFile(path, frame([]byte(payload)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeSeg := func(n uint64, payloads ...string) {
		var buf bytes.Buffer
		for _, p := range payloads {
			buf.Write(frame([]byte(p)))
		}
		path := filepath.Join(dir, fmt.Sprintf("seg-%08d.wal", n))
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeSnap(2, "image")
	writeSeg(3, "orphan-1", "orphan-2")

	j, rec := openT(t, dir, Options{})
	defer j.Close()
	if string(rec.Snapshot) != "image" {
		t.Fatalf("Snapshot = %q", rec.Snapshot)
	}
	if len(rec.Records) != 0 {
		t.Fatalf("orphaned records replayed: %q", records(rec))
	}
	if rec.Truncated == 0 {
		t.Fatal("orphaned segment not counted as truncated")
	}
}

func TestGapInSegmentRunStopsReplay(t *testing.T) {
	dir := t.TempDir()
	writeSeg := func(n uint64, payloads ...string) {
		var buf bytes.Buffer
		for _, p := range payloads {
			buf.Write(frame([]byte(p)))
		}
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("seg-%08d.wal", n)), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeSeg(1, "a")
	writeSeg(3, "c") // gap: seg-2 missing
	j, rec := openT(t, dir, Options{})
	defer j.Close()
	wantRecords(t, rec, "a")
	if rec.Truncated == 0 {
		t.Fatal("post-gap segment not discarded")
	}
}

func TestAppendAfterClose(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir, Options{})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Append([]byte("late")).Wait(); err != ErrClosed {
		t.Fatalf("Append after Close = %v, want ErrClosed", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
}

func TestFailedTicket(t *testing.T) {
	errBoom := fmt.Errorf("boom")
	tk := Failed(errBoom)
	if err := tk.Wait(); err != errBoom {
		t.Fatalf("Wait = %v, want boom", err)
	}
	if err := tk.Wait(); err != errBoom {
		t.Fatalf("second Wait = %v, want boom", err)
	}
}

func TestStatsCRCCoverage(t *testing.T) {
	// Sanity-pin the frame format itself: little-endian length, IEEE CRC of
	// the payload only.
	payload := []byte("pinned")
	buf := frame(payload)
	if got := binary.LittleEndian.Uint32(buf[0:4]); got != uint32(len(payload)) {
		t.Fatalf("length field = %d", got)
	}
	if got := binary.LittleEndian.Uint32(buf[4:8]); got != crc32.ChecksumIEEE(payload) {
		t.Fatalf("crc field = %#x, want %#x", got, crc32.ChecksumIEEE(payload))
	}
	if !bytes.Equal(buf[8:], payload) {
		t.Fatal("payload not copied verbatim")
	}
}
