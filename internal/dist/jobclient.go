package dist

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
)

// exchange runs one one-shot request/reply connection — the shape of
// every stats, trace and job_* client: dial, send req, read and decode
// the single reply frame, check it answers req and carries no
// application error. since is the protocol minor that introduced the
// request: an older server does not know the message and drops the
// connection, which surfaces as the read error.
func exchange(ctx context.Context, addr string, req *message, since string) (*message, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dist: %s dial: %w", req.Type, err)
	}
	defer conn.Close()
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()

	if encErr := writeRequest(conn, req); encErr != nil {
		return nil, fmt.Errorf("dist: %s request: %w", req.Type, encErr)
	}
	line, err := readFrame(bufio.NewReader(conn))
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, fmt.Errorf("dist: %s reply: %w (server may predate protocol %s)", req.Type, err, since)
	}
	m, _, err := decodeWireMessage(line)
	if err != nil {
		return nil, err
	}
	if m == nil || m.Type != req.Type {
		return nil, fmt.Errorf("dist: unexpected reply to %s request", req.Type)
	}
	if m.Error != "" {
		return nil, errors.New(m.Error)
	}
	return m, nil
}

// requestBufs holds the buffers requests are encoded into, so a client
// sending request after request reuses one.
var requestBufs = sync.Pool{New: func() any { return new([]byte) }}

// writeRequest writes req in one write: by hand when it is a hot frame
// (a job_submit), otherwise by encoding/json.
func writeRequest(conn net.Conn, req *message) error {
	buf := requestBufs.Get().(*[]byte)
	defer requestBufs.Put(buf)
	b, ok := appendMessage((*buf)[:0], req)
	if !ok {
		return json.NewEncoder(conn).Encode(req)
	}
	*buf = b
	_, err := conn.Write(b)
	return err
}

// jobExchange is exchange for the job_* requests of protocol 1.3.
func jobExchange(ctx context.Context, addr string, req *message) (*message, error) {
	return exchange(ctx, addr, req, "1.3")
}

// oneJob extracts the single JobInfo a submit/status/cancel reply must
// carry.
func oneJob(m *message, what string) (JobInfo, error) {
	if len(m.Jobs) != 1 {
		return JobInfo{}, fmt.Errorf("dist: %s reply carried %d jobs, want 1", what, len(m.Jobs))
	}
	return m.Jobs[0], nil
}

// SubmitJob dials a running dispatcher and submits one job, returning
// its accepted state (ID assigned, queued or already running).
func SubmitJob(ctx context.Context, addr string, sub JobSubmission) (JobInfo, error) {
	m, err := jobExchange(ctx, addr, &message{Type: msgJobSubmit, Job: &sub})
	if err != nil {
		return JobInfo{}, err
	}
	return oneJob(m, msgJobSubmit)
}

// FetchJobStatus dials a running dispatcher and returns one job's
// current state.
func FetchJobStatus(ctx context.Context, addr, id string) (JobInfo, error) {
	if id == "" {
		return JobInfo{}, errors.New("dist: job status needs a job id (use FetchJobQueue for all jobs)")
	}
	m, err := jobExchange(ctx, addr, &message{Type: msgJobStatus, JobID: id})
	if err != nil {
		return JobInfo{}, err
	}
	return oneJob(m, msgJobStatus)
}

// FetchJobQueue dials a running dispatcher and returns every job it
// retains — queued, running and terminal — in submission order.
func FetchJobQueue(ctx context.Context, addr string) ([]JobInfo, error) {
	m, err := jobExchange(ctx, addr, &message{Type: msgJobStatus})
	if err != nil {
		return nil, err
	}
	return m.Jobs, nil
}

// CancelJob dials a running dispatcher and cancels one job, returning
// its state after the cancellation took effect. Cancelling a queued
// job removes it from the admission queue; cancelling a running job
// releases its leased workers immediately. Cancelling a terminal job
// is an error.
func CancelJob(ctx context.Context, addr, id string) (JobInfo, error) {
	m, err := jobExchange(ctx, addr, &message{Type: msgJobCancel, JobID: id})
	if err != nil {
		return JobInfo{}, err
	}
	return oneJob(m, msgJobCancel)
}

// FetchJobResult dials a running dispatcher and returns a terminal
// job's result. Requesting the result of a queued or running job is an
// error; poll FetchJobStatus first.
func FetchJobResult(ctx context.Context, addr, id string) (JobResult, error) {
	m, err := jobExchange(ctx, addr, &message{Type: msgJobResult, JobID: id})
	if err != nil {
		return JobResult{}, err
	}
	if m.Result == nil {
		return JobResult{}, errors.New("dist: job_result reply without result")
	}
	return *m.Result, nil
}
