package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/admission"
)

// fingerprint digests the decisions of one episode per domain: round
// sequence, the round's tenants in canonical order, and for each tenant
// whether it was accepted, its CU and its per-BS path indices. The z
// reservations are left out: ARCHITECTURE.md leaves them unpinned.
// Safe for concurrent use across domains; each domain's rounds must be
// added in order, which the serial per-domain step loop guarantees.
type fingerprint struct {
	mu  sync.Mutex
	dom map[string][]string
}

func newFingerprint() *fingerprint { return &fingerprint{dom: map[string][]string{}} }

// round adds one decided admission round.
func (f *fingerprint) round(r *admission.Round) {
	var b strings.Builder
	fmt.Fprintf(&b, "seq=%d", r.Seq)
	d := r.Decision
	for i, name := range r.Names {
		fmt.Fprintf(&b, " %s:%t/%d/%v", name, d.Accepted[i], d.CU[i], d.PathIdx[i])
	}
	f.add(r.Domain, b.String())
}

// add appends one canonical line to a domain's record.
func (f *fingerprint) add(domain, line string) {
	f.mu.Lock()
	f.dom[domain] = append(f.dom[domain], line)
	f.mu.Unlock()
}

// digest hashes every domain's lines, domains in name order, to a short
// hex string.
func (f *fingerprint) digest() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	names := make([]string, 0, len(f.dom))
	for n := range f.dom {
		names = append(names, n)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, n := range names {
		fmt.Fprintf(h, "domain %s\n", n)
		for _, l := range f.dom[n] {
			fmt.Fprintln(h, l)
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
