//go:build pooldebug

package mem

import (
	"fmt"
	"sync"
)

// putGuard (pooldebug builds) tracks which values currently sit on the free
// list and panics on a double Put or on a Get returning a value the guard
// never saw leave — both indicate an ownership bug in a retirement point.
// The guard locks its maps, so a pool wrongly reached from two goroutines
// still gets an ownership report out of a debug build rather than a
// concurrent-map fault; debug builds pay the lock.
type putGuard struct {
	mu  sync.Mutex
	acc map[*Access]bool
	pkt map[*Packet]bool
}

func (g *putGuard) init() {
	g.acc = make(map[*Access]bool)
	g.pkt = make(map[*Packet]bool)
}

func (g *putGuard) getAccess(a *Access) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.acc[a] {
		panic(fmt.Sprintf("mem.Pool: GetAccess returned %p which is not on the free list", a))
	}
	delete(g.acc, a)
}

func (g *putGuard) putAccess(a *Access) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.acc[a] {
		panic(fmt.Sprintf("mem.Pool: double PutAccess of %p (id=%d line=%#x reply=%v)", a, a.ID, a.Line, a.IsReply))
	}
	g.acc[a] = true
}

func (g *putGuard) getPacket(k *Packet) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.pkt[k] {
		panic(fmt.Sprintf("mem.Pool: GetPacket returned %p which is not on the free list", k))
	}
	delete(g.pkt, k)
}

func (g *putGuard) putPacket(k *Packet) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.pkt[k] {
		panic(fmt.Sprintf("mem.Pool: double PutPacket of %p (src=%d dst=%d)", k, k.Src, k.Dst))
	}
	g.pkt[k] = true
}
