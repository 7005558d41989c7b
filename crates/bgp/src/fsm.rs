//! The BGP session finite state machine (RFC 4271 §8), simplified to the
//! transitions the simulator exercises.

use std::fmt;

/// Session states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SessionState {
    /// No resources allocated; refuse connections.
    Idle,
    /// Waiting for the transport connection to complete.
    Connect,
    /// Listening for a connection after a connect failure.
    Active,
    /// OPEN sent, waiting for the peer's OPEN.
    OpenSent,
    /// OPEN received, waiting for KEEPALIVE.
    OpenConfirm,
    /// Session established; UPDATE exchange allowed.
    Established,
}

impl fmt::Display for SessionState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SessionState::Idle => "Idle",
            SessionState::Connect => "Connect",
            SessionState::Active => "Active",
            SessionState::OpenSent => "OpenSent",
            SessionState::OpenConfirm => "OpenConfirm",
            SessionState::Established => "Established",
        };
        f.write_str(s)
    }
}

/// Events driving the state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SessionEvent {
    /// Operator starts the session.
    ManualStart,
    /// Operator stops the session.
    ManualStop,
    /// The transport connection succeeded.
    TransportConnected,
    /// The transport connection failed or was torn down.
    TransportFailed,
    /// An OPEN message was received.
    OpenReceived,
    /// A KEEPALIVE message was received.
    KeepaliveReceived,
    /// An UPDATE message was received.
    UpdateReceived,
    /// A NOTIFICATION was received or a fatal error occurred.
    NotificationReceived,
    /// The hold timer expired.
    HoldTimerExpired,
}

/// The session FSM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionFsm {
    state: SessionState,
}

impl Default for SessionFsm {
    fn default() -> Self {
        SessionFsm {
            state: SessionState::Idle,
        }
    }
}

impl SessionFsm {
    /// Creates a new FSM in the `Idle` state.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current state.
    pub fn state(&self) -> SessionState {
        self.state
    }

    /// Returns true if UPDATE messages may be exchanged.
    pub fn is_established(&self) -> bool {
        self.state == SessionState::Established
    }

    /// Applies an event, moving to the state RFC 4271 §8 prescribes;
    /// events a state does not act on leave it unchanged.
    pub fn handle(&mut self, event: SessionEvent) {
        use SessionEvent as E;
        use SessionState as S;
        self.state = match (self.state, event) {
            (S::Idle, E::ManualStart) => S::Connect,

            (S::Connect | S::Active, E::TransportConnected) => S::OpenSent,
            (S::Connect, E::TransportFailed) => S::Active,
            (S::Connect | S::Active, E::ManualStop) => S::Idle,
            (S::Active, E::HoldTimerExpired) => S::Idle,

            (S::OpenSent, E::OpenReceived) => S::OpenConfirm,
            (S::OpenSent, E::TransportFailed) => S::Active,
            (S::OpenSent, E::ManualStop | E::NotificationReceived | E::HoldTimerExpired) => S::Idle,

            (S::OpenConfirm, E::KeepaliveReceived) => S::Established,
            (
                S::OpenConfirm | S::Established,
                E::ManualStop | E::NotificationReceived | E::HoldTimerExpired | E::TransportFailed,
            ) => S::Idle,

            (state, _) => state,
        };
    }

    /// Drives the FSM through the happy path to `Established`.
    pub fn establish(&mut self) {
        self.handle(SessionEvent::ManualStart);
        self.handle(SessionEvent::TransportConnected);
        self.handle(SessionEvent::OpenReceived);
        self.handle(SessionEvent::KeepaliveReceived);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn happy_path_reaches_established() {
        let mut fsm = SessionFsm::new();
        assert_eq!(fsm.state(), SessionState::Idle);
        fsm.handle(SessionEvent::ManualStart);
        assert_eq!(fsm.state(), SessionState::Connect);
        fsm.handle(SessionEvent::TransportConnected);
        assert_eq!(fsm.state(), SessionState::OpenSent);
        fsm.handle(SessionEvent::OpenReceived);
        assert_eq!(fsm.state(), SessionState::OpenConfirm);
        fsm.handle(SessionEvent::KeepaliveReceived);
        assert!(fsm.is_established());
    }

    #[test]
    fn establish_helper() {
        let mut fsm = SessionFsm::new();
        fsm.establish();
        assert!(fsm.is_established());
    }

    #[test]
    fn updates_only_processed_when_established() {
        let mut fsm = SessionFsm::new();
        fsm.handle(SessionEvent::UpdateReceived);
        assert_eq!(fsm.state(), SessionState::Idle);
        fsm.establish();
        fsm.handle(SessionEvent::UpdateReceived);
        assert!(fsm.is_established());
    }

    #[test]
    fn errors_tear_the_session_down() {
        let mut fsm = SessionFsm::new();
        fsm.establish();
        fsm.handle(SessionEvent::NotificationReceived);
        assert_eq!(fsm.state(), SessionState::Idle);

        let mut fsm2 = SessionFsm::new();
        fsm2.establish();
        fsm2.handle(SessionEvent::HoldTimerExpired);
        assert_eq!(fsm2.state(), SessionState::Idle);
    }

    #[test]
    fn connect_failure_falls_back_to_active() {
        let mut fsm = SessionFsm::new();
        fsm.handle(SessionEvent::ManualStart);
        fsm.handle(SessionEvent::TransportFailed);
        assert_eq!(fsm.state(), SessionState::Active);
        // A later successful connection still reaches Established.
        fsm.handle(SessionEvent::TransportConnected);
        assert_eq!(fsm.state(), SessionState::OpenSent);
        fsm.handle(SessionEvent::OpenReceived);
        fsm.handle(SessionEvent::KeepaliveReceived);
        assert!(fsm.is_established());
    }

    #[test]
    fn idle_ignores_everything_but_start() {
        let mut fsm = SessionFsm::new();
        for e in [
            SessionEvent::UpdateReceived,
            SessionEvent::KeepaliveReceived,
            SessionEvent::OpenReceived,
            SessionEvent::TransportConnected,
        ] {
            fsm.handle(e);
            assert_eq!(fsm.state(), SessionState::Idle);
        }
    }
}
