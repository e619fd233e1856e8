//! Properties of the `cpackd` wire protocol, off the socket.
//!
//! Two behaviours, for all inputs: a request or response written by this
//! build reads back unchanged, for every op and status, id, deadline and
//! payload; and any byte string, including a mutated or truncated frame,
//! reads as a typed `ProtoError` or a clean end of stream (`Ok(None)`),
//! never a panic.

use codepack_svc::proto::{
    read_request, read_response, write_request, write_response, Op, ProtoError, Request, Response,
    Status,
};
use codepack_svc::MAX_WIRE_PAYLOAD;
use codepack_testkit::forall;
use codepack_testkit::prop::{gen, Gen};

/// Every status, in wire-code order.
const STATUSES: [Status; 8] = [
    Status::Ok,
    Status::BadRequest,
    Status::Corrupt,
    Status::TooLarge,
    Status::Overloaded,
    Status::DeadlineExceeded,
    Status::ShuttingDown,
    Status::WorkerLost,
];

fn arb_payload() -> Gen<Vec<u8>> {
    gen::vec_of(gen::any_int::<u8>(), 0..300)
}

fn arb_request() -> Gen<Request> {
    gen::ints(0usize..Op::all().len())
        .zip(gen::any_int::<u64>())
        .zip(gen::any_int::<u32>())
        .zip(arb_payload())
        .map(|(((op, id), deadline_ms), payload)| Request {
            id,
            op: Op::all()[op],
            deadline_ms,
            payload,
        })
}

fn arb_response() -> Gen<Response> {
    gen::ints(0usize..STATUSES.len())
        .zip(gen::any_int::<u64>())
        .zip(arb_payload())
        .map(|((status, id), payload)| Response {
            id,
            status: STATUSES[status],
            payload,
        })
}

fn request_bytes(req: &Request) -> Vec<u8> {
    let mut wire = Vec::new();
    write_request(&mut wire, req).expect("writing to a Vec cannot fail");
    wire
}

fn response_bytes(resp: &Response) -> Vec<u8> {
    let mut wire = Vec::new();
    write_response(&mut wire, resp).expect("writing to a Vec cannot fail");
    wire
}

#[test]
fn requests_round_trip_for_every_op() {
    forall!(cases = 128, (arb_request()), |req| {
        let wire = request_bytes(&req);
        let mut r = wire.as_slice();
        assert_eq!(read_request(&mut r, MAX_WIRE_PAYLOAD), Ok(Some(req)));
        assert_eq!(read_request(&mut r, MAX_WIRE_PAYLOAD), Ok(None));
    });
}

#[test]
fn responses_round_trip_for_every_status() {
    forall!(cases = 128, (arb_response()), |resp| {
        let wire = response_bytes(&resp);
        let mut r = wire.as_slice();
        assert_eq!(read_response(&mut r, MAX_WIRE_PAYLOAD), Ok(Some(resp)));
        assert_eq!(read_response(&mut r, MAX_WIRE_PAYLOAD), Ok(None));
    });
}

/// The typed outcomes a reader may give a hostile stream.
fn is_typed<T>(outcome: &Result<Option<T>, ProtoError>) -> bool {
    match outcome {
        Ok(_) => true,
        Err(e) => !matches!(e, ProtoError::Io(_)),
    }
}

#[test]
fn arbitrary_bytes_read_as_typed_outcomes() {
    forall!(
        cases = 256,
        (
            gen::vec_of(gen::any_int::<u8>(), 0..64),
            gen::any_int::<u32>()
        ),
        |bytes, limit| {
            let request = read_request(&mut bytes.as_slice(), limit);
            let response = read_response(&mut bytes.as_slice(), limit);
            assert!(is_typed(&request), "request reader: {request:?}");
            assert!(is_typed(&response), "response reader: {response:?}");
            if bytes.is_empty() {
                assert_eq!(request, Ok(None));
                assert_eq!(response, Ok(None));
            }
        }
    );
}

#[test]
fn mutated_frames_read_as_typed_outcomes() {
    let edits = gen::vec_of(gen::any_int::<u16>().zip(gen::any_int::<u8>()), 1..6);
    forall!(
        cases = 256,
        (arb_request(), arb_response(), edits),
        |req, resp, edits| {
            for mut wire in [request_bytes(&req), response_bytes(&resp)] {
                // Overwrite bytes, mostly in the header where the parser
                // branches on magic, version, code and length.
                for &(at, byte) in &edits {
                    let at = usize::from(at) % wire.len().min(32);
                    wire[at] = byte;
                }
                let request = read_request(&mut wire.as_slice(), MAX_WIRE_PAYLOAD);
                let response = read_response(&mut wire.as_slice(), MAX_WIRE_PAYLOAD);
                assert!(is_typed(&request), "request reader: {request:?}");
                assert!(is_typed(&response), "response reader: {response:?}");
            }
        }
    );
}

#[test]
fn truncated_frames_are_typed_errors() {
    forall!(
        cases = 128,
        (arb_request(), arb_response(), gen::unit_f64()),
        |req, resp, cut| {
            for wire in [request_bytes(&req), response_bytes(&resp)] {
                // Any strict, nonempty prefix is a frame cut short.
                let at = 1 + ((wire.len() - 1) as f64 * cut) as usize;
                let at = at.min(wire.len() - 1);
                let prefix = &wire[..at];
                let request = read_request(&mut &prefix[..], MAX_WIRE_PAYLOAD);
                let response = read_response(&mut &prefix[..], MAX_WIRE_PAYLOAD);
                for outcome in [request.map(|_| ()), response.map(|_| ())] {
                    assert!(
                        matches!(outcome, Err(ref e) if !matches!(e, ProtoError::Io(_))),
                        "a {at}-byte prefix of a {}-byte frame read as {outcome:?}",
                        wire.len()
                    );
                }
            }
        }
    );
}

#[test]
fn oversized_payloads_are_refused_before_buffering() {
    forall!(
        cases = 64,
        (arb_request(), gen::ints(0u32..64)),
        |req, limit| {
            let wire = request_bytes(&req);
            let outcome = read_request(&mut wire.as_slice(), limit);
            if req.payload.len() as u32 > limit {
                assert_eq!(
                    outcome,
                    Err(ProtoError::TooLarge {
                        len: req.payload.len() as u32,
                        limit
                    })
                );
            } else {
                assert_eq!(outcome, Ok(Some(req)));
            }
        }
    );
}
