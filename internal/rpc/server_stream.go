package rpc

import (
	"context"
	"encoding/binary"
	"sync/atomic"
	"time"

	"priste/internal/api"
)

// streamAckBatch caps how many releases coalesce into one opStreamAcks
// frame: enough to amortise the frame header and syscall, small enough
// that acks stay timely under sustained load.
const streamAckBatch = 32

// serverStream is one open step stream on one connection. The inbox is
// sized to the client-advertised window, so a compliant client can
// never fill it (it has at most `window` unacked steps outstanding);
// overflow is a protocol violation and kills the stream. The map entry,
// inboxClosed and all pushes belong to the connection's reader
// goroutine; dead is the only field shared with the pump.
type serverStream struct {
	id          string
	window      int
	inbox       chan int
	inboxClosed bool
	dead        atomic.Bool
}

// kill marks the stream terminal from the reader side and releases the
// pump. Reader goroutine only.
func (st *serverStream) kill() {
	st.dead.Store(true)
	if !st.inboxClosed {
		st.inboxClosed = true
		close(st.inbox)
	}
}

// syncStepper adapts a Service without the StepAsync fast path for the
// stream pump: each submission commits synchronously, degrading the
// stream to an effective window of 1 but preserving every semantic.
// router.Router is such a Service, so every stream opened on
// pristerouter runs at window 1.
type syncStepper struct{ svc api.Service }

func (s syncStepper) StepAsync(ctx context.Context, id string, loc int) (<-chan api.StepOutcome, error) {
	resp, err := s.svc.Step(ctx, id, loc)
	if err != nil {
		return nil, err
	}
	ch := make(chan api.StepOutcome, 1)
	ch <- api.StepOutcome{Resp: resp}
	return ch, nil
}

// pumpStream is the per-stream worker: it submits inbox locations to
// the service in order, keeps the submissions' completion channels in
// FIFO, and flushes certified releases back as batched opStreamAcks
// frames. A full session queue is never surfaced to the client as an
// error — the pump settles its own head-of-line step (freeing a queue
// slot) and retries, so backpressure reaches the client only as
// withheld acks. Any step failure is terminal: the pump emits the
// releases that preceded it, then opError with the stream's reqID.
func (s *Server) pumpStream(ctx context.Context, w *connWriter, st *serverStream, stepper api.AsyncStepper, reqID, trace uint64) {
	defer s.wg.Done()
	type inflight struct {
		ch        <-chan api.StepOutcome
		submitted time.Time
	}
	var (
		pending     []inflight
		ackBuf      = make([]byte, 4, 4+streamAckBatch*stepRespLen)
		ackCount    int
		outstanding int
	)
	defer func() {
		if outstanding != 0 && s.ObserveStreamWindow != nil {
			s.ObserveStreamWindow(st.id, -outstanding)
		}
		if s.OnStreamClose != nil {
			s.OnStreamClose(st.id)
		}
	}()
	flush := func() {
		if ackCount == 0 {
			return
		}
		binary.BigEndian.PutUint32(ackBuf[:4], uint32(ackCount))
		w.send(opStreamAcks, reqID, trace, ackBuf)
		if s.ObserveStreamAcks != nil {
			s.ObserveStreamAcks(ackCount)
		}
		ackBuf = ackBuf[:4]
		ackCount = 0
	}
	terminate := func(err error) {
		flush()
		st.dead.Store(true)
		w.send(opError, reqID, trace, appendErrResp(nil, err))
	}
	settle := func(in inflight, out api.StepOutcome) bool {
		outstanding--
		if s.ObserveStreamWindow != nil {
			s.ObserveStreamWindow(st.id, -1)
		}
		if out.Err != nil {
			terminate(out.Err)
			return false
		}
		encStart := time.Now()
		ackBuf = appendStepResp(ackBuf, out.Resp)
		ackCount++
		s.observeStep(in.submitted, 0, time.Since(encStart))
		if ackCount >= streamAckBatch {
			flush()
		}
		return true
	}
	awaitHead := func() bool {
		in := pending[0]
		pending = pending[1:]
		select {
		case out := <-in.ch:
			return settle(in, out)
		case <-ctx.Done():
			return false
		}
	}
	// settleReady consumes completions that are already available
	// without blocking, so acks flow even while input keeps arriving.
	settleReady := func() bool {
		for len(pending) > 0 {
			select {
			case out := <-pending[0].ch:
				in := pending[0]
				pending = pending[1:]
				if !settle(in, out) {
					return false
				}
			default:
				return true
			}
		}
		return true
	}
	submit := func(loc int) bool {
		for {
			ch, err := stepper.StepAsync(ctx, st.id, loc)
			if err == nil {
				pending = append(pending, inflight{ch: ch, submitted: time.Now()})
				outstanding++
				if s.ObserveStreamWindow != nil {
					s.ObserveStreamWindow(st.id, 1)
				}
				return true
			}
			if api.ErrorOf(err).Code != api.CodeResourceExhausted {
				terminate(err)
				return false
			}
			// Session queue full. With our own steps in flight, settling
			// the head frees a slot; otherwise another writer owns the
			// queue — yield briefly and retry.
			if len(pending) > 0 {
				if !awaitHead() {
					return false
				}
				continue
			}
			flush()
			select {
			case <-time.After(200 * time.Microsecond):
			case <-ctx.Done():
				return false
			}
		}
	}
	for {
		if st.dead.Load() {
			return
		}
		if !settleReady() {
			return
		}
		if len(pending) == 0 {
			// Nothing in flight: deliver buffered acks now instead of
			// holding them for more input.
			flush()
			select {
			case loc, ok := <-st.inbox:
				if !ok {
					if st.dead.Load() {
						return
					}
					w.send(opStreamEnd, reqID, trace, nil)
					return
				}
				if !submit(loc) {
					return
				}
			case <-ctx.Done():
				return
			}
		} else {
			select {
			case loc, ok := <-st.inbox:
				if !ok {
					for len(pending) > 0 {
						if !awaitHead() {
							return
						}
					}
					if st.dead.Load() {
						return
					}
					flush()
					w.send(opStreamEnd, reqID, trace, nil)
					return
				}
				if !submit(loc) {
					return
				}
			case out := <-pending[0].ch:
				in := pending[0]
				pending = pending[1:]
				if !settle(in, out) {
					return
				}
			case <-ctx.Done():
				return
			}
		}
	}
}
