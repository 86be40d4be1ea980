package mocca

import (
	"fmt"
	"time"

	"mocca/internal/directory"
	"mocca/internal/netsim"
	"mocca/internal/rpc"
	"mocca/internal/rtc"
	"mocca/internal/trader"
)

// JoinConference creates a session for a member at their own node and
// joins it, driving the simulated clock until the join completes.
func (d *Deployment) JoinConference(conferenceID, member string, opts ...rtc.SessionOption) (*rtc.Session, error) {
	sess, err := d.NewConferenceSession(conferenceID, member, opts...)
	if err != nil {
		return nil, err
	}
	if err := d.drive(sess.Join); err != nil {
		return nil, err
	}
	return sess, nil
}

// NewConferenceSession prepares (but does not join) a session for a member
// at their own node. Callers that run on the simulated-clock goroutine —
// the workload driver — join via Session.GoJoin; interactive callers use
// JoinConference, which drives the blocking Join to completion.
func (d *Deployment) NewConferenceSession(conferenceID, member string, opts ...rtc.SessionOption) (*rtc.Session, error) {
	nodeAddr := netsim.Address("user-" + member)
	var ep *rpc.Endpoint
	if _, exists := d.net.Node(nodeAddr); exists {
		// Node (and endpoint) remain from a previous session of the same
		// user; a fresh endpoint would steal the node's channel stack.
		cached, ok := d.userEPs[nodeAddr]
		if !ok {
			return nil, fmt.Errorf("mocca: node %q exists without an endpoint", nodeAddr)
		}
		ep = cached
	} else {
		ep = d.newEndpoint(nodeAddr)
		d.userEPs[nodeAddr] = ep
	}
	// A new session supersedes the user's previous one: detach it so it
	// stops receiving (and its callbacks stop firing on) future events.
	if prev, ok := d.userSessions[nodeAddr]; ok {
		prev.Detach()
	}
	sess := rtc.NewSession(ep, d.clock, "mcu", conferenceID, member, opts...)
	d.userSessions[nodeAddr] = sess
	return sess, nil
}

// ServiceEndpoint returns (creating it on first use) an rpc endpoint at
// addr on the simulated network, its channel stack enrolled in the
// deployment's fabric like every site endpoint's. Harness-level
// infrastructure — the workload generator's DSA and trader nodes, per-site
// load clients — lives on such endpoints so its traffic shows up in
// Fabric totals under its own address prefix.
func (d *Deployment) ServiceEndpoint(addr string) *rpc.Endpoint {
	a := netsim.Address(addr)
	if ep, ok := d.userEPs[a]; ok {
		return ep
	}
	ep := d.endpointAt(a)
	d.userEPs[a] = ep
	return ep
}

// Do runs a blocking operation against the deployment, advancing simulated
// time until it completes. Use it for Session and Client calls from
// example programs.
func (d *Deployment) Do(op func() error) error { return d.drive(op) }

// Run drains the simulated network to quiescence.
func (d *Deployment) Run() { d.clock.RunUntilIdle() }

// Advance moves simulated time forward, delivering due events.
func (d *Deployment) Advance(dur time.Duration) { d.clock.Advance(dur) }

// driveTimeout bounds drive in wall-clock time. Simulated work completes
// in microseconds of real time; an operation still pending after this
// long is stuck on something no amount of simulated time will fix.
const driveTimeout = 10 * time.Second

// drive executes op on a helper goroutine while this goroutine advances
// the simulated clock, idle-aware: time jumps straight to the next
// scheduled event instead of polling in fixed steps, and when the clock
// has nothing scheduled it briefly yields so the operation goroutine can
// either finish or schedule its next event.
func (d *Deployment) drive(op func() error) error {
	done := make(chan error, 1)
	go func() { done <- op() }()
	//lint:allow determinism wall-clock watchdog bounding a stuck simulated run; it only decides when to give up, never what the run computes
	start := time.Now()
	for {
		select {
		case err := <-done:
			return err
		default:
		}
		if deadline, ok := d.clock.NextDeadline(); ok {
			d.clock.AdvanceTo(deadline)
		} else {
			// Simulated clock idle: the operation is between steps on its
			// own goroutine. Yield until it finishes or schedules.
			select {
			case err := <-done:
				return err
			//lint:allow determinism wall-clock yield while the simulated clock is idle; it paces the host loop, never the simulated run
			case <-time.After(50 * time.Microsecond):
			}
		}
		//lint:allow determinism wall-clock watchdog bounding a stuck simulated run; it only decides when to give up, never what the run computes
		if time.Since(start) > driveTimeout {
			return fmt.Errorf("mocca: operation did not complete within %v (%d simulated events still pending)",
				driveTimeout, d.clock.Pending())
		}
	}
}

// RegisterTradingService exports a service offer into the environment's
// trader under a service type (registering the type on first use).
func (d *Deployment) RegisterTradingService(serviceType, offerID string, provider string, props map[string]string) error {
	tr := d.env.Trader()
	if !tr.HasType(serviceType) {
		if err := tr.RegisterType(serviceType); err != nil {
			return err
		}
	}
	offer := trader.Offer{ID: offerID, ServiceType: serviceType, Provider: netsim.Address(provider)}
	if len(props) > 0 {
		attrs := make(directory.Attributes, len(props))
		for k, v := range props {
			attrs.Add(k, v)
		}
		offer.Properties = attrs
	}
	return tr.Export(offer)
}
