package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"strings"
	"time"

	"rim/internal/csi"
	"rim/internal/session"
)

// The generator runs as its own process so its CPU time stays out of the
// daemon's getrusage. It talks to the daemon side over stdin/stdout:
//
//	gen → "ready"                 templates synthesized, frames encoded
//	    ← "go <addr>"             dial, send preambles and opens
//	gen → "t0 <unix ns>"          tick 0 is due at this wall time
//	gen → "done <sent> <late p90 ns>"
//	    ← "close"                 send MsgClose for every walker, hang up
//
// Frame k of walker w is due at t0 + (w.offset + k)·tick. Each tick's
// frames for one connection leave in a single write, and the generator
// reports how late after its due time each frame left.

// genConns is how many connections the walkers are striped over.
const genConns = 2

// idOffset is where a MsgFrame's session id starts: 1 type byte, 4 length
// bytes, 2 string-length bytes.
const idOffset = 7

func runGenerator(f *fleet) error {
	runtime.GOMAXPROCS(1)
	// Pre-encode every template frame once, with the id of the first
	// walker; a walker's frame is that message with its own id patched in
	// (all ids have the same length).
	enc := make([][][]byte, len(f.templates))
	for ti, t := range f.templates {
		s := t.series
		snap := make([][][]complex128, s.NumAnts)
		for a := range snap {
			snap[a] = make([][]complex128, s.NumTx)
		}
		missing := make([]bool, s.NumAnts)
		enc[ti] = make([][]byte, s.NumSlots())
		for k := range enc[ti] {
			f.frameRows(walker{tmpl: ti}, k, snap, missing)
			var buf bytes.Buffer
			if err := session.WriteFrame(&buf, f.walkers[0].id, snap, missing); err != nil {
				return err
			}
			enc[ti][k] = buf.Bytes()
		}
	}

	in := bufio.NewScanner(os.Stdin)
	out := bufio.NewWriter(os.Stdout)
	say := func(format string, args ...any) {
		fmt.Fprintf(out, format+"\n", args...)
		out.Flush()
	}
	say("ready")
	if !in.Scan() {
		return fmt.Errorf("generator: no start command")
	}
	addr, ok := strings.CutPrefix(in.Text(), "go ")
	if !ok {
		return fmt.Errorf("generator: unexpected command %q", in.Text())
	}

	conns := make([]net.Conn, genConns)
	mine := make([][]walker, genConns)
	for i, w := range f.walkers {
		mine[i%genConns] = append(mine[i%genConns], w)
	}
	for c := range conns {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return err
		}
		defer conn.Close()
		bw := bufio.NewWriter(conn)
		if err := session.WriteWirePreamble(bw); err != nil {
			return err
		}
		for _, w := range mine[c] {
			if err := session.WriteOpen(bw, w.id, specOf(f.templates[w.tmpl].series)); err != nil {
				return err
			}
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		conns[c] = conn
	}

	t0 := time.Now().Add(100 * time.Millisecond)
	say("t0 %d", t0.UnixNano())
	// One sender paces every connection: a single wake-up per tick keeps
	// the generator's footprint on the daemon's cores small.
	var lates []time.Duration
	var buf []byte
	sent := 0
	for t := 0; t <= f.lastTick(); t++ {
		due := t0.Add(time.Duration(t) * tick)
		time.Sleep(time.Until(due))
		late := time.Since(due)
		for c, conn := range conns {
			buf = buf[:0]
			n := 0
			for _, w := range mine[c] {
				k := t - w.offset
				if k < 0 || k >= f.frames {
					continue
				}
				msg := enc[w.tmpl][k%len(enc[w.tmpl])]
				at := len(buf)
				buf = append(buf, msg...)
				copy(buf[at+idOffset:], w.id)
				n++
			}
			if n == 0 {
				continue
			}
			if _, err := conn.Write(buf); err != nil {
				return err
			}
			for i := 0; i < n; i++ {
				lates = append(lates, late)
			}
			sent += n
		}
	}
	say("done %d %d", sent, int64(durQuantile(lates, 0.9, time.Nanosecond)))

	if !in.Scan() || in.Text() != "close" {
		return fmt.Errorf("generator: expected close command")
	}
	for c, conn := range conns {
		bw := bufio.NewWriter(conn)
		for _, w := range mine[c] {
			if err := session.WriteClose(bw, w.id); err != nil {
				return err
			}
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
			return err
		}
	}
	// Wait for the daemon to finish the closes and hang up.
	for _, conn := range conns {
		if _, err := io.Copy(io.Discard, conn); err != nil {
			return err
		}
	}
	return nil
}

func specOf(s *csi.Series) session.Spec {
	return session.Spec{Rate: s.Rate, NumAnts: s.NumAnts, NumTx: s.NumTx, NumSub: s.NumSub}
}

// genResult is what the generator reports at the end of the send phase.
type genResult struct {
	sent    int
	lateP90 time.Duration
}

func parseDone(line string) (genResult, error) {
	var r genResult
	if _, err := fmt.Sscanf(line, "done %d %d", &r.sent, &r.lateP90); err != nil {
		return r, fmt.Errorf("generator: unexpected report %q: %v", line, err)
	}
	return r, nil
}
