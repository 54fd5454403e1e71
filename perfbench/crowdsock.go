package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"syscall"
	"time"
	"unsafe"
)

// crowdSock is the loopback workload's one listener socket. Bound to the
// wildcard address, it sends each crowd member's requests from that
// member's own 127/8 source address (IP_PKTINFO on send), attributes
// every arriving datagram to the address it was sent to (IP_PKTINFO on
// receive), and reads the kernel's arrival timestamp (SO_TIMESTAMPNS).
type crowdSock struct {
	c    *net.UDPConn
	port int
	// overflow is the kernel's count of datagrams this socket dropped
	// because its receive buffer was full (SO_RXQ_OVFL), as of the last
	// recv; only the reading goroutine touches it.
	overflow uint32
}

// crowdBufBytes is the receive buffer asked for: a fan-out burst of one
// packet to the whole crowd must fit while the reader is descheduled.
const crowdBufBytes = 4 << 20

func openCrowdSock() (*crowdSock, error) {
	var soErr error
	lc := net.ListenConfig{Control: func(_, _ string, rc syscall.RawConn) error {
		err := rc.Control(func(fd uintptr) {
			for _, o := range [][3]int{
				{syscall.IPPROTO_IP, syscall.IP_PKTINFO, 1},
				{syscall.SOL_SOCKET, syscall.SO_TIMESTAMPNS, 1},
				{syscall.SOL_SOCKET, syscall.SO_RXQ_OVFL, 1},
			} {
				if soErr == nil {
					soErr = syscall.SetsockoptInt(int(fd), o[0], o[1], o[2])
				}
			}
		})
		if err != nil {
			return err
		}
		return soErr
	}}
	pc, err := lc.ListenPacket(context.Background(), "udp4", "0.0.0.0:0")
	if err != nil {
		return nil, fmt.Errorf("crowd socket: %w", err)
	}
	c := pc.(*net.UDPConn)
	if err := c.SetReadBuffer(crowdBufBytes); err != nil {
		c.Close()
		return nil, fmt.Errorf("crowd socket buffer: %w", err)
	}
	return &crowdSock{c: c, port: c.LocalAddr().(*net.UDPAddr).Port}, nil
}

// sendFrom sends b to dst with src as the datagram's source address.
func (s *crowdSock) sendFrom(src net.IP, dst *net.UDPAddr, b []byte) error {
	oob := make([]byte, syscall.CmsgSpace(syscall.SizeofInet4Pktinfo))
	h := (*syscall.Cmsghdr)(unsafe.Pointer(&oob[0]))
	h.Level = syscall.IPPROTO_IP
	h.Type = syscall.IP_PKTINFO
	h.SetLen(syscall.CmsgLen(syscall.SizeofInet4Pktinfo))
	pi := (*syscall.Inet4Pktinfo)(unsafe.Pointer(&oob[syscall.CmsgLen(0)]))
	copy(pi.Spec_dst[:], src.To4())
	_, _, err := s.c.WriteMsgUDP(b, oob, dst)
	return err
}

// recv reads one datagram and returns its source, its header
// destination address (as a uint32, network order) and its kernel
// arrival time.
func (s *crowdSock) recv(buf, oob []byte) (n int, from *net.UDPAddr, dst uint32, at time.Time, err error) {
	n, oobn, _, from, err := s.c.ReadMsgUDP(buf, oob)
	if err != nil {
		return 0, nil, 0, time.Time{}, err
	}
	msgs, err := syscall.ParseSocketControlMessage(oob[:oobn])
	if err != nil {
		return 0, nil, 0, time.Time{}, err
	}
	for _, m := range msgs {
		switch {
		case m.Header.Level == syscall.IPPROTO_IP && m.Header.Type == syscall.IP_PKTINFO && len(m.Data) >= syscall.SizeofInet4Pktinfo:
			pi := (*syscall.Inet4Pktinfo)(unsafe.Pointer(&m.Data[0]))
			dst = binary.BigEndian.Uint32(pi.Addr[:])
		case m.Header.Level == syscall.SOL_SOCKET && m.Header.Type == syscall.SO_RXQ_OVFL && len(m.Data) >= 4:
			s.overflow = binary.NativeEndian.Uint32(m.Data)
		case m.Header.Level == syscall.SOL_SOCKET && m.Header.Type == syscall.SO_TIMESTAMPNS && len(m.Data) >= int(unsafe.Sizeof(syscall.Timespec{})):
			ts := (*syscall.Timespec)(unsafe.Pointer(&m.Data[0]))
			at = time.Unix(ts.Sec, ts.Nsec)
		}
	}
	if at.IsZero() {
		at = time.Now()
	}
	return n, from, dst, at, nil
}

func ip4u(ip net.IP) uint32 { return binary.BigEndian.Uint32(ip.To4()) }
