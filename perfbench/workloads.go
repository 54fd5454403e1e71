package main

import (
	"encoding/binary"
	"math"
	"math/rand"
	"time"

	"repro/internal/audio"
	"repro/internal/codec"
	"repro/internal/relay"
	"repro/internal/security"
)

// mix64 is splitmix64: seeded content derived from (seed, position)
// without keeping generator state per channel.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// paBroadcast: one Voice channel (8 kHz µ-law mono, 80-byte chunks
// every 10 ms — the smallest packets the system carries) plus a Control
// each second, fanned out to a large audience. The initial audience
// joins in waves while the stream plays; inside the window further
// listeners join one at a time, hold for a seeded time and leave, so
// joins and tune-ins are timed against a relay busy fanning out. No
// auth, DVR or tiers. size scales the audience (1 for the benchmark of
// record).
const (
	paInitial     = 5000
	paWave        = 500
	paJoinsPerSec = 200
)

func paBroadcast(seed int64, seconds int, size float64) func() *inprocPlan {
	return func() *inprocPlan {
		rng := rand.New(rand.NewSource(seed))
		ch := chanSpec{
			id: 1, params: audio.Voice, codec: "raw",
			payload: func(seq uint64) []byte {
				b := make([]byte, 80)
				for i := 0; i < len(b); i += 8 {
					binary.LittleEndian.PutUint64(b[i:], mix64(uint64(seed)<<32^seq<<4^uint64(i)))
				}
				return b
			},
		}
		win := time.Duration(seconds) * time.Second
		initial := scaled(paInitial, size)
		n := scaled(paJoinsPerSec, size) * seconds
		ls := make([]*listener, initial+n)
		for i := range ls {
			ls[i] = &listener{addr: listenerAddr(i), ch: 1, window: i >= initial}
		}
		// Window joins: one per equal slot at a seeded offset, so the
		// joins' phase against the Control cadence covers it evenly.
		var window []event
		slot := win / time.Duration(n)
		for i, l := range ls[initial:] {
			at := time.Duration(i)*slot + time.Duration(rng.Int63n(int64(slot)))
			window = append(window, event{at: at, kind: evSubscribe, l: l})
			if hold := 5*time.Second + time.Duration(rng.Int63n(int64(10*time.Second))); at+hold < win-500*time.Millisecond {
				window = append(window, event{at: at + hold, kind: evCancel, l: l})
			}
		}
		sortEvents(window)
		return &inprocPlan{
			channels:  []chanSpec{ch},
			relayCfg:  relay.Config{MaxSubscribers: 1 << 15},
			listeners: ls,
			setup:     ls[:initial],
			wave:      paWave,
			window:    window,
			leaseMs:   60_000,
		}
	}
}

// randDur is a seeded duration in [0, d), or 0 when d is not positive.
func randDur(rng *rand.Rand, d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	return time.Duration(rng.Int63n(int64(d)))
}

// scaled is n scaled by size, at least 1.
func scaled(n int, size float64) int {
	if v := int(float64(n) * size); v > 0 {
		return v
	}
	return 1
}

// multiroomChurn: tens of 16-bit PCM channels on one ident-authed,
// DVR-recording wildcard relay; listeners with distinct identities
// arrive in storms, hold for seeded times and cancel, requesting every
// delivery tier. No listener asks for a time shift or pauses: the
// relay's backlog->live seam can hand a converging listener the same
// packet twice, at random (README.md, "Left out").
const (
	churnChannels     = 12
	churnInitial      = 800
	churnStorm        = 100
	churnStormsPerSec = 5
	churnWave         = 400
)

var churnParams = audio.Params{SampleRate: 8000, Channels: 1, Encoding: audio.EncodingSLinear16LE}

// churnSample is channel ch's n'th source sample: a seeded tone plus a
// little noise, inside ±16000 so µ-law never clips.
func churnSample(seed int64, ch uint32, n uint64) int16 {
	h := mix64(uint64(seed)*1315423911 ^ uint64(ch))
	freq := 200 + float64(h%1000)
	amp := 6000 + float64((h>>20)%6000)
	noise := float64(int64(mix64(h^n)%401) - 200)
	return int16(amp*math.Sin(2*math.Pi*freq*float64(n)/8000) + noise)
}

func churnPayload(seed int64, ch uint32, seq uint64) []byte {
	b := make([]byte, 160)
	for i := 0; i < 80; i++ {
		binary.LittleEndian.PutUint16(b[2*i:], uint16(churnSample(seed, ch, (seq-1)*80+uint64(i))))
	}
	return b
}

func multiroomChurn(seed int64, seconds int, size float64) func() *inprocPlan {
	return func() *inprocPlan {
		rng := rand.New(rand.NewSource(seed))
		var master [32]byte
		for i := range master {
			master[i] = byte(rng.Intn(256))
		}
		ring := security.NewKeyring(master[:])
		chans := make([]chanSpec, scaled(churnChannels, size))
		for i := range chans {
			id := uint32(i + 1)
			chans[i] = chanSpec{
				id: id, params: churnParams, codec: "raw",
				payload: func(seq uint64) []byte { return churnPayload(seed, id, seq) },
				phase:   time.Duration(i) * tick / time.Duration(len(chans)),
				ctlTick: uint64(rng.Intn(int(controlInterval / tick))),
			}
		}
		win := time.Duration(seconds) * time.Second
		nStorms := int(float64(seconds) * churnStormsPerSec)
		var ls []*listener
		newListener := func() *listener {
			i := len(ls)
			addr := listenerAddr(i)
			l := &listener{
				addr: addr, ch: uint32(1 + rng.Intn(len(chans))),
				prof:   pickProfile(rng),
				signer: ring.SignerAt(uint32(i+1), string(addr), 0),
			}
			ls = append(ls, l)
			return l
		}
		var setup []*listener
		var window []event
		for i := 0; i < scaled(churnInitial, size); i++ {
			l := newListener()
			setup = append(setup, l)
			if rng.Intn(2) == 0 {
				window = append(window, event{at: 500*time.Millisecond + time.Duration(randDur(rng, win-1500*time.Millisecond)), kind: evCancel, l: l})
			}
		}
		for s := 0; s < nStorms; s++ {
			at := randDur(rng, win-2*time.Second)
			for j := 0; j < scaled(churnStorm, size); j++ {
				l := newListener()
				l.window = true
				window = append(window, event{at: at, kind: evSubscribe, l: l})
				hold := time.Second + time.Duration(rng.Int63n(int64(2*time.Second)))
				if at+hold < win-500*time.Millisecond {
					window = append(window, event{at: at + hold, kind: evCancel, l: l})
				}
			}
		}
		sortEvents(window)
		return &inprocPlan{
			channels:  chans,
			relayCfg:  relay.Config{MaxSubscribers: 1 << 14, DVR: true},
			keyring:   ring,
			listeners: ls,
			setup:     setup,
			wave:      churnWave,
			window:    window,
			leaseMs:   60_000,
		}
	}
}

// pickProfile requests every tier: source for 40% of listeners, each
// transcoded tier for 20%.
func pickProfile(rng *rand.Rand) codec.Profile {
	switch r := rng.Intn(10); {
	case r < 4:
		return codec.ProfileSource
	case r < 6:
		return codec.ProfileULaw
	case r < 8:
		return codec.ProfileOVLHigh
	default:
		return codec.ProfileOVLLow
	}
}
